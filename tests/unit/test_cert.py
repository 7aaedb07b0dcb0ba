"""Unit tests for the certification layer (repro.cert).

Covers the proof log container, the RUP/DRAT checker on hand-built
event streams (including deletions, trimming, assumption conclusions,
corruption rejection and untrusted hints), witness replay, and the
certify_* entry points' failure behavior.
"""

import pytest

from repro import obs
from repro.cert import (
    CertificationFailure,
    ProofLog,
    certification_enabled,
    certify_unsat,
    certify_witness,
    check_events,
    use_certification,
)
from repro.cert.drat import check_proof
from repro.cert.witness import replay_witness
from repro.netlist import NetlistBuilder
from repro.sat import Solver, UNSAT
from repro.unroll import bmc


# Literal convention throughout: lit = 2*var + sign (sign 1 = negated).
X, NX = 0, 1        # var 0
Y, NY = 2, 3        # var 1
Z, NZ = 4, 5        # var 2
W, NW = 6, 7        # var 3
V, NV = 8, 9        # var 4


def counter_net(width, hit_value):
    b = NetlistBuilder(f"counter{width}")
    regs = b.registers(width, prefix="c")
    b.connect_word(regs, b.increment(regs))
    t = b.buf(b.word_eq(regs, b.word_const(hit_value, width)),
              name="t")
    b.net.add_target(t)
    return b.net, t


def pigeonhole_3_2():
    """A proof-logging solver that has refuted PHP(3,2): 3 pigeons,
    2 holes."""
    solver = Solver(proof=True)
    holes = {(p, h): 2 * (p * 2 + h)
             for p in range(3) for h in range(2)}
    for p in range(3):
        solver.add_clause([holes[(p, 0)], holes[(p, 1)]])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                solver.add_clause([holes[(p1, h)] ^ 1,
                                   holes[(p2, h)] ^ 1])
    assert solver.solve() == UNSAT
    return solver


class TestProofLog:
    def test_events_accumulate_in_order(self):
        log = ProofLog()
        log.input([X, Y])
        log.learnt([Y])
        log.delete([Y])
        log.conclude_unsat((NX,))
        assert log.events == [("i", (X, Y)), ("a", (Y,)),
                              ("d", (Y,)), ("u", (NX,))]
        assert len(log) == 4

    def test_literals_are_snapshotted(self):
        # The solver mutates clause lists in place (watch swaps); the
        # log must keep the values at logging time.
        log = ProofLog()
        lits = [X, Y]
        log.input(lits)
        lits[0] = NX
        assert log.events[0] == ("i", (X, Y))

    def test_clause_ids_and_hint_table(self):
        # Ids count the i/a events only; a lemma's hints are keyed by
        # its id, and a lemma without hints leaves no entry.
        log = ProofLog()
        assert log.input([X, Y]) == 0
        assert log.input([NX, Y]) == 1
        log.delete([X, Y])
        log.conclude_unsat(())
        assert log.learnt([Y], hints=[0, 1]) == 2
        assert log.learnt([X]) == 3
        assert log.hints == {2: (0, 1)}
        assert log.events[4] == ("a", (Y,))

    def test_counts(self):
        log = ProofLog()
        log.input([X])
        log.input([NX])
        log.learnt([Y])
        log.conclude_unsat(())
        counts = log.counts()
        assert counts["i"] == 2
        assert counts["a"] == 1
        assert counts["u"] == 1


class TestChecker:
    def test_trivial_unit_conflict(self):
        result = check_events([("i", (X,)), ("i", (NX,)), ("u", ())])
        assert result.ok
        assert result.conclusions == 1
        assert result.core_inputs == 2

    def test_rup_lemma_chain(self):
        # F = (x|y)(~x|y)(x|~y)(~x|~y); lemma y is RUP, then empty.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("i", (X, NY)), ("i", (NX, NY)),
            ("a", (Y,)),
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok
        assert result.lemmas_checked == 1
        assert result.lemmas_trimmed == 0
        assert result.core_inputs == 4

    def test_assumption_conclusion(self):
        # F = (x|y)(~x|y) is satisfiable; UNSAT only under ~y.
        events = [("i", (X, Y)), ("i", (NX, Y)), ("u", (NY,))]
        result = check_events(events)
        assert result.ok
        assert result.conclusions == 1

    def test_non_rup_lemma_rejected(self):
        # ~y is NOT implied by (x|y)(~x|y): propagating y conflicts
        # nowhere.  A conclusion leaning on the corrupt lemma must
        # mark it needed and then fail its RUP check.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("a", (NY,)),               # corrupted lemma
            ("u", (Y,)),                # conflict only via the lemma
        ]
        result = check_events(events)
        assert not result.ok
        assert any("not RUP" in err for err in result.errors)

    def test_hinted_lemma_concludes_on_its_hints(self):
        # F = (x|y)(~x|y)(x|~y)(~x|~y); lemma y.  Under ~y, clause 0
        # asserts x and clause 1 is falsified: the hints suffice.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("i", (X, NY)), ("i", (NX, NY)),
            ("a", (Y,)),
            ("u", ()),
        ]
        result = check_events(events, hints={4: (0, 1)})
        assert result.ok
        assert result.lemmas_checked == result.lemmas_hinted == 1
        assert check_events(events).lemmas_hinted == 0

    def test_non_rup_lemma_rejected_despite_hints(self):
        # The corrupt lemma of test_non_rup_lemma_rejected, with hints
        # naming every real clause: hints only order unit propagation,
        # so the lemma still fails its check.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("a", (NY,)),
            ("u", (Y,)),
        ]
        for hints in ((0, 1), (1, 0, 1, 0), (2, 1, 0)):
            result = check_events(events, hints={2: hints})
            assert not result.ok
            assert result.lemmas_hinted == 0
            assert any("not RUP" in err for err in result.errors)

    def test_hint_ids_out_of_scope_are_ignored(self):
        # Negative ids, the lemma's own id, an id added after the
        # lemma and ids past the end: none may raise or conclude a
        # check.  Clause 5, (~y), would refute the lemma's roots at
        # once, but it is added after the lemma.  A hint keyed by an
        # input's id, or by no clause at all, is never read.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("i", (X, NY)), ("i", (NX, NY)),
            ("a", (Y,)),
            ("u", ()),
            ("i", (NY,)),
        ]
        bad = (-1, -7, 4, 5, 7, 10 ** 9)
        result = check_events(events, hints={4: bad, 0: (1,), 99: (0,)})
        assert result.ok, result.errors
        assert result.lemmas_checked == 1
        assert result.lemmas_hinted == 0

    def test_check_proof_follows_the_log_hints(self):
        log = ProofLog()
        for lits in ((X, Y), (NX, Y), (X, NY), (NX, NY)):
            log.input(lits)
        log.learnt((Y,), hints=(0, 1))
        log.conclude_unsat(())
        result = check_proof(log)
        assert result.ok
        assert result.lemmas_hinted == 1

    def test_underivable_conclusion_rejected(self):
        events = [("i", (X, Y)), ("u", ())]
        result = check_events(events)
        assert not result.ok
        assert any("not derivable" in err for err in result.errors)

    def test_deleted_lemma_is_restored_going_backward(self):
        # The lemma is deleted before the conclusion; the conclusion
        # must not use it, and backward checking re-activates it only
        # for the timeline prefix where it was live.
        events = [
            ("i", (X, Y)), ("i", (NX, Y)),
            ("a", (Y,)),
            ("d", (Y,)),
            ("u", (NY,)),
        ]
        result = check_events(events)
        assert result.ok
        assert result.deletions == 1
        assert result.lemmas_trimmed == 1  # nothing needed the lemma

    def test_deletion_matches_by_sorted_literal_tuple(self):
        # Watched-literal swaps permute stored order after logging:
        # the deletion arrives with a different permutation.
        events = [
            ("i", (X,)), ("i", (NX,)),
            ("a", (Y, X)),
            ("d", (X, Y)),
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok
        assert result.deletions == 1

    def test_deleting_never_added_clause_is_an_error(self):
        result = check_events([("i", (X,)), ("d", (Y,)), ("u", ())],
                              require_conclusion=False)
        assert not result.ok
        assert any("never added" in err for err in result.errors)

    def test_duplicate_copies_are_distinct_instances(self):
        # Regression: an input clause loaded twice is two instances.
        # Deleting one copy must leave the other live — the conclusion
        # below depends on the surviving (X, Y).
        events = [
            ("i", (X, Y)), ("i", (X, Y)),
            ("i", (NX,)), ("i", (NY,)),
            ("d", (X, Y)),
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok
        assert result.deletions == 1

    def test_deleting_every_copy_then_needing_one_fails(self):
        # Both copies deleted: the conclusion genuinely has nothing to
        # conflict on, and a third deletion underflows the instance
        # stack.
        events = [
            ("i", (X, Y)), ("i", (X, Y)),
            ("i", (NX,)), ("i", (NY,)),
            ("d", (X, Y)), ("d", (X, Y)),
            ("u", ()),
        ]
        result = check_events(events)
        assert not result.ok
        assert result.deletions == 2
        assert any("not derivable" in err for err in result.errors)

        third = check_events(events[:-1] + [("d", (X, Y)), ("u", ())])
        assert any("never added" in err for err in third.errors)

    def test_duplicate_literal_input_matches_deduplicated_deletion(self):
        # Regression: inputs are logged pre-normalisation — (X, X, Y)
        # — while the solver stores and later deletes the deduplicated
        # (X, Y).  The canonical clause_key must pair them.
        events = [
            ("i", (X, X, Y)),
            ("i", (X,)), ("i", (NX,)),
            ("d", (X, Y)),
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok
        assert result.deletions == 1

    def test_conclusion_required_by_default(self):
        result = check_events([("i", (X,)), ("i", (NX,))])
        assert not result.ok
        assert any("no UNSAT conclusion" in err
                   for err in result.errors)
        assert check_events([("i", (X,))],
                            require_conclusion=False).ok

    def test_duplicate_literals_in_inputs_still_propagate(self):
        # Regression: XOR clauses over aliased frame literals log
        # duplicated literals, e.g. (~z | x | x).  The checker's unit
        # detection must not count the same unassigned literal twice.
        events = [
            ("i", (Z,)),
            ("i", (NZ, X, X)),
            ("i", (NZ, NX, NX)),
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok

    def test_check_proof_wrapper(self):
        log = ProofLog()
        log.input([X])
        log.input([NX])
        log.conclude_unsat(())
        assert check_proof(log).ok

    def test_every_active_empty_clause_counts(self):
        # Regression: the propagator kept one empty-clause slot, so
        # detaching the learned () hid the still-active input ().
        result = check_events([("i", ()), ("a", ()), ("u", ())])
        assert result.ok, result.errors
        assert result.core_inputs == 1

    def test_deleted_long_lemma_reattached_after_watches_moved(self):
        # C = (x|y|z) is a learned clause, RUP through A1/A2, that u1
        # needs and the log then deletes.  Going backward, u2's check
        # runs first (without C) and moves the watches of E and G off
        # ~z; the d event then re-attaches C, and u1's check must
        # still propagate C, H, E into a conflict on G.
        events = [
            ("i", (X, Y, Z, W)), ("i", (X, Y, Z, NW)),  # A1, A2
            ("i", (NZ, W, V)),                          # E
            ("i", (NV, NZ, W)),                         # G
            ("i", (NW, NZ)),                            # H
            ("a", (X, Y, Z)),                           # C
            ("u", (NX, NY)),                            # u1: needs C
            ("d", (X, Y, Z)),
            ("u", (Z,)),                                # u2: E, G, H
        ]
        result = check_events(events)
        assert result.ok, result.errors
        assert result.conclusions == 2
        assert result.deletions == 1
        assert result.lemmas_checked == 1
        assert result.core_inputs == 5

    def test_watchers_behind_a_conflict_stay_watched(self):
        # Going backward, u1's check conflicts on A while B = (x|z|w)
        # still waits behind A on the watch list of x.  A is then
        # detached, and u2 needs B to propagate z from ~x, ~w, which
        # only its watch on x can notice.
        events = [
            ("i", (NZ, Y)), ("i", (NZ, NY)),   # D, E
            ("i", (X, Z, W)),                  # B
            ("u", (NX, NW)),                   # u2: B, D, E
            ("i", (X, Y)),                     # A
            ("u", (NX, NY)),                   # u1: A
            ("d", (X, Z, W)),
        ]
        result = check_events(events)
        assert result.ok, result.errors
        assert result.conclusions == 2
        assert result.core_inputs == 4

    def test_lemma_rup_only_through_inactive_clause_fails(self):
        # L = (x|y) is RUP only through D = (x|y|z) and (~z).  Where D
        # is not active at L, L's check must fail: whether D was
        # deleted before L, or D is an input added after L.  The
        # second case leaves D detached but still on the watch lists
        # of x and y when L is checked.
        deleted_before = [
            ("i", (NZ,)), ("i", (X, Y, Z)),
            ("d", (X, Y, Z)),
            ("a", (X, Y)),
            ("u", (NX, NY)),
        ]
        added_after = [
            ("i", (NZ,)),
            ("a", (X, Y)),
            ("u", (NX, NY)),
            ("i", (X, Y, Z)),
            ("u", (NX, NY)),
        ]
        for events in (deleted_before, added_after):
            result = check_events(events)
            assert not result.ok
            assert result.lemmas_checked == 1
            assert any("not RUP" in err for err in result.errors)

    def test_trimming_skips_unneeded_lemmas(self):
        # An irrelevant (but valid) lemma off to the side is trimmed,
        # not checked.
        events = [
            ("i", (X,)), ("i", (NX,)),
            ("i", (Y, Z)),
            ("a", (Y, Z)),   # subsumed copy; RUP but useless
            ("u", ()),
        ]
        result = check_events(events)
        assert result.ok
        assert result.lemmas_trimmed == 1
        assert result.lemmas_checked == 0


class TestSolverProofIntegration:
    def test_solver_unsat_proof_checks(self):
        result = check_proof(pigeonhole_3_2().proof)
        assert result.ok
        assert result.conclusions == 1
        # The solver's hint chains conclude every checked lemma.
        assert result.lemmas_checked >= 1
        assert result.lemmas_hinted == result.lemmas_checked

    def test_proof_off_by_default(self):
        solver = Solver()
        assert solver.proof is None


class TestWitnessReplay:
    def _cex(self):
        net, t = counter_net(2, 2)
        result = bmc(net, t, max_depth=5)
        assert result.status == "falsified"
        return net, t, result.counterexample

    def test_genuine_witness_replays(self):
        net, t, cex = self._cex()
        report = replay_witness(net, t, cex)
        assert report.ok
        assert report.frames_checked == cex.depth + 1
        assert report.mismatch_count == 0

    def test_tampered_depth_rejected(self):
        net, t, cex = self._cex()
        cex.depth += 1
        cex.inputs.append({})
        report = replay_witness(net, t, cex)
        assert not report.ok
        assert report.mismatch_count > 0

    def test_truncated_trace_rejected(self):
        net, t, cex = self._cex()
        cex.inputs.pop()
        report = replay_witness(net, t, cex)
        assert not report.ok


class TestCertifyEntryPoints:
    def test_toggle_roundtrip(self):
        assert not certification_enabled()
        with use_certification(True):
            assert certification_enabled()
            with use_certification(False):
                assert not certification_enabled()
            assert certification_enabled()
        assert not certification_enabled()

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_certification(True):
                raise RuntimeError("boom")
        assert not certification_enabled()

    def test_certify_unsat_requires_proof_log(self):
        solver = Solver()  # proofs off: nothing to check
        with pytest.raises(CertificationFailure) as info:
            certify_unsat(solver, "test")
        assert info.value.stage == "proof"
        assert info.value.engine == "test"

    def test_certify_unsat_publishes_hinted_lemmas(self):
        solver = pigeonhole_3_2()
        with obs.scoped(obs.Registry("cert-test")) as reg:
            result = certify_unsat(solver, "test")
            snap = reg.snapshot()
        assert result.lemmas_hinted >= 1
        assert snap["counters"]["cert.lemmas_hinted"] \
            == result.lemmas_hinted
        (event,) = [e for e in reg.events if e["name"] == "cert.proof"]
        assert event["lemmas_hinted"] == result.lemmas_hinted
        assert event["lemmas_checked"] == result.lemmas_checked

    def test_certify_witness_rejects_tampered_cex(self):
        net, t = counter_net(2, 2)
        result = bmc(net, t, max_depth=5)
        cex = result.counterexample
        cex.depth += 1
        cex.inputs.append({})
        with obs.scoped(obs.Registry("cert-test")) as reg:
            with pytest.raises(CertificationFailure) as info:
                certify_witness(net, t, cex, engine="bmc")
            snap = reg.snapshot()
        assert info.value.stage == "witness"
        assert snap["counters"]["cert.failed"] == 1

    def test_failure_pickles_with_fields(self):
        import pickle

        err = CertificationFailure("bmc", stage="proof",
                                   message="lemma 3 is not RUP")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, CertificationFailure)
        assert clone.engine == "bmc"
        assert clone.stage == "proof"
        assert "not RUP" in str(clone)
