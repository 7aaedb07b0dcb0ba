"""Verdict certification: every answer ships with a checkable artifact.

The engines in this library *search*; this package *audits*.  A
verdict is certified by an artifact validated by machinery far simpler
than the solver that produced it (the trace-automata BMC-certification
shape):

* **UNSAT** — the solver's DRAT-style proof log
  (:mod:`repro.cert.proof`, kept by a solver built as
  ``Solver(proof=True)``) is replayed by the stdlib RUP checker of
  :mod:`repro.cert.drat` (backward checking, core trimming) — unit
  propagation is the only trusted inference.
* **SAT** — the counterexample is re-executed concretely through the
  bit-parallel simulator (:mod:`repro.cert.witness`), asserting the
  target literal and every latch-transition constraint frame by frame.

A failed check raises :class:`~repro.resilience.CertificationFailure`
(an :class:`~repro.resilience.EngineFailure` subtype, so every
existing degradation path already handles it); ``prove()`` reacts by
retrying the engine call once on the same solver (a transient fault
recovers, a genuine solver bug fails again) and, on a second failure,
degrading to the sound structural bound.  Certification has one
switch, the :func:`use_certification` scope (off by default), and a
certifying engine builds its solvers with ``proof=True``.  It
publishes ``cert.checked`` / ``cert.failed`` counters plus ``cert.*``
trace instants through :mod:`repro.obs`.

Import discipline: :mod:`repro.sat.solver` imports
:mod:`repro.cert.proof` through this ``__init__``, so nothing here may
import back through the solver stack at module scope —
:mod:`repro.cert.witness` (which needs :mod:`repro.sim`) loads lazily
inside :func:`certify_witness`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .. import obs
from ..resilience.errors import CertificationFailure
from . import drat
from .drat import CheckResult, check_events
from .proof import ProofLog

__all__ = [
    "CertificationFailure",
    "CheckResult",
    "ProofLog",
    "certification_enabled",
    "certify_unsat",
    "certify_witness",
    "check_events",
    "use_certification",
]

# ----------------------------------------------------------------------
# Certification scope
# ----------------------------------------------------------------------
_cert_enabled = False


def certification_enabled() -> bool:
    """Whether verdict-emitting engines certify by default."""
    return _cert_enabled


@contextmanager
def use_certification(enabled: bool) -> Iterator[None]:
    """Scoped override of the certification default (``--certify``)."""
    global _cert_enabled
    previous = _cert_enabled
    _cert_enabled = bool(enabled)
    try:
        yield
    finally:
        _cert_enabled = previous


# ----------------------------------------------------------------------
# Certification entry points (the engines call these)
# ----------------------------------------------------------------------
def certify_unsat(solver, engine: str) -> CheckResult:
    """Certify a solver's UNSAT answers from its proof log.

    Checks every UNSAT conclusion the solver emitted (incremental
    sessions conclude once per refuted query) and the needed lemmas
    backward from each.  Raises
    :class:`~repro.resilience.CertificationFailure` when the solver
    carries no proof log or the check fails; returns the
    :class:`~repro.cert.drat.CheckResult` otherwise.
    """
    reg = obs.get_registry()
    proof: Optional[ProofLog] = getattr(solver, "proof", None)
    if proof is None:
        reg.counter("cert.failed")
        reg.event("cert.failure", engine=engine, stage="proof",
                  detail="no proof log")
        raise CertificationFailure(
            engine, stage="proof",
            message="solver carries no proof log (proof logging was "
                    "off when it was constructed)")
    with reg.span("cert.proof"):
        result = drat.check_proof(proof)
    reg.counter("cert.checked")
    if result.lemmas_checked:
        reg.counter("cert.lemmas_checked", result.lemmas_checked)
    if result.lemmas_hinted:
        reg.counter("cert.lemmas_hinted", result.lemmas_hinted)
    if result.lemmas_trimmed:
        reg.counter("cert.lemmas_trimmed", result.lemmas_trimmed)
    reg.event("cert.proof", engine=engine, ok=result.ok,
              conclusions=result.conclusions,
              lemmas_checked=result.lemmas_checked,
              lemmas_hinted=result.lemmas_hinted,
              lemmas_trimmed=result.lemmas_trimmed,
              core_inputs=result.core_inputs)
    if not result.ok:
        reg.counter("cert.failed")
        reg.event("cert.failure", engine=engine, stage="proof",
                  detail=result.errors[0] if result.errors else "")
        raise CertificationFailure(
            engine, stage="proof",
            message=result.errors[0] if result.errors
            else "proof check failed")
    return result


def certify_witness(net, target: int, cex, model=None, unroll=None,
                    engine: str = "bmc"):
    """Certify a SAT verdict by concrete counterexample replay.

    Raises :class:`~repro.resilience.CertificationFailure` on any
    disagreement between the claimed trace/model and the simulated
    netlist semantics; returns the
    :class:`~repro.cert.witness.WitnessReport` otherwise.
    """
    from .witness import replay_witness  # lazy: pulls in repro.sim

    reg = obs.get_registry()
    with reg.span("cert.witness"):
        report = replay_witness(net, target, cex, model=model,
                                unroll=unroll)
    reg.counter("cert.checked")
    reg.event("cert.witness", engine=engine, ok=report.ok,
              depth=report.depth,
              frames_checked=report.frames_checked,
              literals_checked=report.literals_checked)
    if not report.ok:
        reg.counter("cert.failed")
        reg.event("cert.failure", engine=engine, stage="witness",
                  detail=report.detail)
        raise CertificationFailure(engine, stage="witness",
                                   message=report.detail
                                   or "witness replay failed")
    return report
