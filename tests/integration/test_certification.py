"""End-to-end certification integration tests.

The ISSUE's acceptance bar: certified verdicts are byte-identical to
uncertified ones on healthy runs; an injected ``corrupt_learnt`` /
``corrupt_model`` fault is *caught* by the proof checker or witness
replay while the uncertified path silently accepts the answer; and
:func:`repro.core.prove` arbitrates — one retry, then graceful
degradation to the sound structural bound when certification fails
persistently.
"""

import pytest

from repro import obs
from repro.cert import CertificationFailure, use_certification
from repro.core import compare_strategies, prove
from repro.gen import iscas89
from repro.netlist import NetlistBuilder
from repro.resilience import FAULT_CORRUPT_MODEL, FaultPlan, inject
from repro.unroll import (
    BOUNDED,
    FALSIFIED,
    PROVEN,
    bmc,
    k_induction,
)


def counter_target(width, hit_value):
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.buf(b.word_eq(regs, b.word_const(hit_value, width)),
              name="t")
    b.net.add_target(t)
    return b.net, t


def unreachable_target():
    b = NetlistBuilder("stuck")
    r = b.register(name="r")
    b.connect(r, r)
    b.net.add_target(r)
    return b.net, r


def s1269():
    """The pinned adversarial instance: large enough that BMC actually
    learns clauses (pure counters solve by propagation alone, so the
    ``corrupt_learnt`` fault would never fire on them)."""
    return iscas89.generate("s1269")


def portfolio_learnts(net):
    """How many clauses prove()'s portfolio learns on ``net``'s first
    target: the learnt index the first certified run starts at.
    prove() runs the portfolio on a copy scoped to the target."""
    scoped = net.copy()
    scoped.targets = net.targets[:1]
    with use_certification(True):
        with inject(FaultPlan()) as plan:
            compare_strategies(scoped)
    return plan.learnts


class TestVerdictIdentity:
    """Certification must never change an answer, only audit it."""

    @pytest.mark.parametrize("design", ["s27", "s298"])
    def test_iscas_bmc_verdicts_identical(self, design):
        net = iscas89.generate(design)
        with use_certification(False):
            plain = bmc(net, max_depth=12)
        with use_certification(True):
            certified = bmc(net, max_depth=12)
        assert certified.status == plain.status
        assert certified.depth_checked == plain.depth_checked
        assert certified.certified and not plain.certified
        if plain.counterexample is None:
            assert certified.counterexample is None
        else:
            assert certified.counterexample.depth == \
                plain.counterexample.depth
            assert certified.counterexample.inputs == \
                plain.counterexample.inputs
            assert certified.counterexample.initial_state == \
                plain.counterexample.initial_state

    def test_counterexample_certified(self):
        net, t = counter_target(3, 5)
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                result = bmc(net, t, max_depth=10)
            snap = reg.snapshot()
        assert result.status == FALSIFIED
        assert result.counterexample.depth == 5
        assert result.certified
        # Witness replay ran and the refuted frames 0..4 were
        # proof-checked: two checks, zero failures.
        assert snap["counters"]["cert.checked"] == 2
        assert "cert.failed" not in snap["counters"]

    def test_proven_bmc_certified(self):
        net, t = unreachable_target()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                result = bmc(net, t, max_depth=8, complete_bound=4)
            snap = reg.snapshot()
        assert result.status == PROVEN
        assert result.certified
        assert snap["counters"]["cert.checked"] == 1

    def test_k_induction_proof_certified(self):
        net, t = unreachable_target()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                result = k_induction(net, t, max_k=4)
            snap = reg.snapshot()
        assert result.status == PROVEN
        assert result.certified
        # One check of the base window's proof log, one of the step's.
        assert snap["counters"]["cert.checked"] == 2
        assert "cert.failed" not in snap["counters"]


class TestAdversarialCorruption:
    """The point of the layer: corrupted reasoning must not survive."""

    def test_corrupt_learnt_caught_by_proof_check(self):
        net = s1269()
        with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
            with pytest.raises(CertificationFailure) as info:
                with use_certification(True):
                    bmc(net, max_depth=12)
        assert info.value.stage == "proof"

    def test_corrupt_learnt_accepted_silently_without_certification(self):
        # The same fault under the uncertified path: the run completes
        # and reports a definitive-looking verdict with no hint that
        # conflict analysis was corrupted.  This is the hazard the
        # certification layer exists to close.
        net = s1269()
        with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
            with use_certification(False):
                result = bmc(net, max_depth=12)
        assert result.status in (FALSIFIED, BOUNDED, PROVEN)

    def test_corrupt_model_caught_by_witness_replay(self):
        net, t = counter_target(3, 5)
        # Call index 5 is the SAT frame (frames 0..4 refute).
        with inject(FaultPlan(at={5: FAULT_CORRUPT_MODEL})):
            with pytest.raises(CertificationFailure) as info:
                with use_certification(True):
                    bmc(net, t, max_depth=10)
        assert info.value.stage == "witness"
        assert "under simulation" in str(info.value)

    def test_corrupt_model_accepted_silently_without_certification(self):
        net, t = counter_target(3, 5)
        with inject(FaultPlan(at={5: FAULT_CORRUPT_MODEL})):
            with use_certification(False):
                result = bmc(net, t, max_depth=10)
        assert result.status == FALSIFIED


class TestProveArbitration:
    """prove() retries a certification failure once, then degrades to
    the sound structural bound."""

    def test_transient_corruption_recovers_via_same_core_retry(self):
        # Corruption limited to the first learnt clause after the
        # portfolio: the first certified run's proof check fails, the
        # retry (fault index already consumed) certifies cleanly.
        net = s1269()
        first = portfolio_learnts(net)
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                with inject(FaultPlan(
                        corrupt_learnt=range(first, first + 1))):
                    result = prove(net)
            snap = reg.snapshot()
        assert not result.degraded
        assert result.status == "falsified"
        assert snap["counters"]["cert.retried"] >= 1
        assert snap["counters"]["cert.recovered"] >= 1

    def test_persistent_corruption_degrades_to_structural_bound(self):
        net = s1269()
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                with inject(FaultPlan(corrupt_learnt=range(10 ** 6))):
                    result = prove(net)
            snap = reg.snapshot()
        assert result.degraded
        assert result.exhaustion_reason == "certification"
        assert result.method == "structural-fallback"
        assert result.bound is not None
        assert snap["counters"]["cert.retried"] >= 1
        assert "cert.recovered" not in snap["counters"]


def pigeonhole_net(pigeons, holes):
    """PHP(pigeons, holes) as a combinational miter: the target is
    satisfiable iff the (unsatisfiable) pigeonhole formula is, so BMC
    refutes every frame — after enough conflicts to restart."""
    b = NetlistBuilder(f"php{pigeons}x{holes}")
    x = {(p, h): b.input(f"x{p}_{h}") for p in range(pigeons)
         for h in range(holes)}
    clauses = [b.or_(*(x[p, h] for h in range(holes)))
               for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append(b.or_(b.not_(x[p1, h]),
                                     b.not_(x[p2, h])))
    t = b.buf(b.and_(*clauses), name="t")
    b.net.add_target(t)
    return b.net, t


class TestCertifiedRefutation:
    """Tier-1 smoke for a certified BMC refutation hard enough to
    restart: the verdict is the expected one, and certified."""

    def test_bmc_refutes_pigeonhole_certified(self):
        net, t = pigeonhole_net(6, 5)
        with obs.scoped(obs.Registry("cert-int")) as reg:
            with use_certification(True):
                result = bmc(net, t, max_depth=1)
            snap = reg.snapshot()
        assert (result.status, result.depth_checked) == (BOUNDED, 1)
        assert result.counterexample is None
        assert snap["counters"]["sat.restarts"] >= 1
        assert snap["counters"]["cert.checked"] >= 1
        assert "cert.failed" not in snap["counters"]
