"""The DRAT checker's propagator against a naive unit-propagation fixpoint.

:class:`repro.cert.drat._Propagator` propagates on two watched
literals with blockers, keeps the level-0 fixpoint of the active
clauses between checks, and drops detached clauses from its watch
lists lazily.  Here it runs random clause sets through random
schedules shaped like the backward checking pass: the clauses live at
the end of the log are attached first, and each clause is attached at
most once, then detached at most once, and never comes back.  Every
check is compared with propagation done the slow way, sweeping the
live clauses until nothing changes, and a level 0 the propagator still
holds after a check must be exactly the naive fixpoint of the live
clauses.  The deterministic schedules below reach each event that must
discard a held level 0.

A check may follow hints, clause ids that the proof log does not vouch
for.  Random hint lists, with repeated, out-of-order, out-of-range and
inactive ids, must change nothing a check decides: a hinted check
conflicts exactly when the naive fixpoint does, its cone is a conflict
set of live clauses, and the level 0 it leaves behind is the naive
fixpoint's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cert.drat import _Propagator

MAX_VARS = 7

literals = st.integers(0, 2 * MAX_VARS - 1)
# Half the clauses are empty or unit, half are watched (2-5 literals).
clauses = st.lists(literals, max_size=1) \
    | st.lists(literals, min_size=2, max_size=5)


def naive_fixpoint(clause_lits, roots):
    """Unit propagation from ``roots`` over ``clause_lits`` (lists of
    literals, lit = 2*var + sign) the slow way: None when it derives a
    conflict, else the set of literals it makes true."""
    value = {}  # var -> bool

    def assign(lit):
        want = not lit & 1
        return value.setdefault(lit >> 1, want) == want

    for lit in roots:
        if not assign(lit):
            return None
    changed = True
    while changed:
        changed = False
        for clause in clause_lits:
            unassigned = set()
            for lit in clause:
                current = value.get(lit >> 1)
                if current is None:
                    unassigned.add(lit)
                elif current != bool(lit & 1):
                    break  # satisfied
            else:
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    assign(unassigned.pop())
                    changed = True
    return {2 * var + (not truth) for var, truth in value.items()}


def naive_conflict(clause_lits, roots):
    """Whether unit propagation from ``roots`` derives a conflict."""
    return naive_fixpoint(clause_lits, roots) is None


def is_watched(prop, cid):
    """Whether a live clause of two or more literals sits on the watch
    lists of its first two literals (the invariant checks rely on)."""
    lits = prop._lits[cid]
    if len(lits) < 2:
        return True
    return all(cid in prop._watches[lit][0::2] for lit in lits[:2])


def check_against_naive(prop, clause_lits, live, roots, hints=()):
    """Run one check and hold it, and the level 0 it leaves, to the
    naive fixpoint of the live clauses."""
    cone = prop.check(roots, hints)
    live_lits = [clause_lits[cid] for cid in live]
    assert (cone is not None) == naive_conflict(live_lits, roots)
    if cone is not None:
        assert set(cone) <= set(live)
        assert naive_conflict([clause_lits[cid] for cid in cone], roots)
    if prop._held and prop._zero_cone is None:
        assert set(prop._trail) == naive_fixpoint(live_lits, ())
    assert all(is_watched(prop, cid) for cid in live)
    return cone


@settings(max_examples=150, deadline=None)
@given(st.lists(clauses, max_size=10), st.data())
def test_check_matches_naive_fixpoint(clause_lits, data):
    # check_events hands the propagator duplicate-free literal lists.
    # Two propagators run the schedule: the second follows random
    # hints on every check, and both must agree with the naive
    # fixpoint.
    pool = [list(dict.fromkeys(lits)) for lits in clause_lits]
    plain = _Propagator(MAX_VARS, [list(lits) for lits in pool])
    hinted = _Propagator(MAX_VARS, [list(lits) for lits in pool])
    live_at_end = data.draw(st.integers(0, len(pool)), label="live")
    live = list(range(live_at_end))
    unattached = list(range(live_at_end, len(pool)))
    for cid in live:
        plain.attach(cid)
        hinted.attach(cid)
    steps = data.draw(st.integers(1, 24), label="steps")
    for step in range(steps):
        op = data.draw(st.sampled_from(("attach", "detach", "check")))
        if op == "attach" and unattached:
            index = data.draw(st.integers(0, len(unattached) - 1))
            cid = unattached.pop(index)
            plain.attach(cid)
            hinted.attach(cid)
            live.append(cid)
        elif op == "detach" and live:
            index = data.draw(st.integers(0, len(live) - 1))
            cid = live.pop(index)
            plain.detach(cid)
            hinted.detach(cid)
        elif op == "check" or step == steps - 1:
            if pool and data.draw(st.booleans(), label="rup-shaped"):
                # A lemma check asserts the negation of its literals.
                index = data.draw(st.integers(0, len(pool) - 1))
                roots = [lit ^ 1 for lit in pool[index]]
            else:
                roots = data.draw(st.lists(literals, max_size=3),
                                  label="roots")
            # Every id in some order, then repeated, out-of-range and
            # inactive ones: such hints often conclude a check, and
            # often name clauses that cannot help it.
            hints = data.draw(st.permutations(range(len(pool)))) \
                + data.draw(st.lists(st.integers(-2, len(pool) + 1),
                                     max_size=8), label="hints")
            if data.draw(st.booleans(), label="noise only"):
                hints = hints[len(pool):]
            check_against_naive(plain, pool, live, roots)
            check_against_naive(hinted, pool, live, roots, hints)


# Literals of the deterministic schedules: variable v is 2v, ~v is 2v+1.
A, B, C = 0, 2, 4


def schedule(clause_lits, live):
    """A propagator over ``clause_lits`` with ``live`` attached and
    level 0 held (one check without roots)."""
    prop = _Propagator(MAX_VARS, [list(lits) for lits in clause_lits])
    for cid in live:
        prop.attach(cid)
    check_against_naive(prop, clause_lits, live, [])
    assert prop._held
    return prop


class TestHints:
    """A check follows its hints before the watched propagation."""

    def test_hints_alone_reach_the_conflict(self):
        # Roots ~a, ~b: (a | c) gives c, (~c | b) is then falsified.
        clause_lits = [[A, C], [C ^ 1, B], [A, B, C]]
        prop = schedule(clause_lits, [0, 1, 2])
        cone = check_against_naive(prop, clause_lits, [0, 1, 2],
                                   [A ^ 1, B ^ 1], [0, 1])
        assert sorted(cone) == [0, 1]
        assert prop.hinted == 1

    def test_out_of_order_hints_fall_back_to_propagation(self):
        # Root ~a.  Backward, the walk passes over (~b | ~c) and
        # (~b | c), both with two free literals, asserts b from
        # (a | b) and runs out of hints; the watched propagation then
        # derives c and the conflict.
        clause_lits = [[A, B], [B ^ 1, C], [B ^ 1, C ^ 1]]
        prop = schedule(clause_lits, [0, 1, 2])
        cone = check_against_naive(prop, clause_lits, [0, 1, 2],
                                   [A ^ 1], [2, 1, 0])
        assert sorted(cone) == [0, 1, 2]
        assert prop.hinted == 0

    def test_inactive_and_out_of_range_hints_are_ignored(self):
        # (~a) is detached, so the hint naming it must not conflict.
        clause_lits = [[A, B], [A ^ 1]]
        prop = schedule(clause_lits, [0, 1])
        prop.detach(1)
        assert check_against_naive(prop, clause_lits, [0], [A],
                                   [1, -1, 2, 99, 1]) is None
        assert prop.hinted == 0


class TestLevelZeroEvents:
    """Each event that could make a held level 0 wrong discards it."""

    def test_detaching_a_propagated_reason(self):
        # a, a -> b: level 0 holds b with (~a | b) as its reason.
        clause_lits = [[A], [A ^ 1, B]]
        prop = schedule(clause_lits, [0, 1])
        prop.detach(1)
        assert check_against_naive(prop, clause_lits, [0], [B ^ 1]) is None

    def test_detaching_a_unit_reason(self):
        clause_lits = [[A], [A ^ 1, B]]
        prop = schedule(clause_lits, [0, 1])
        prop.detach(0)
        assert check_against_naive(prop, clause_lits, [1], [A ^ 1]) is None

    def test_detaching_a_non_reason_keeps_level_zero(self):
        clause_lits = [[A], [A ^ 1, B], [A ^ 1, B, C]]
        prop = schedule(clause_lits, [0, 1, 2])
        prop.detach(2)
        assert prop._held
        cone = check_against_naive(prop, clause_lits, [0, 1], [B ^ 1])
        assert sorted(cone) == [0, 1]

    def test_detaching_while_level_zero_conflicts(self):
        # a and ~a: level 0 conflicts, and (~a) is not a's reason.
        clause_lits = [[A], [A ^ 1], [B, C]]
        prop = schedule(clause_lits, [0, 1, 2])
        assert prop._zero_cone is not None
        prop.detach(1)
        assert check_against_naive(prop, clause_lits, [0, 2], []) is None

    def test_attaching_a_unit_clause(self):
        # b -> c and b -> ~c: no conflict until b is a unit.
        clause_lits = [[B ^ 1, C], [B ^ 1, C ^ 1], [B]]
        prop = schedule(clause_lits, [0, 1])
        prop.attach(2)
        assert check_against_naive(prop, clause_lits, [0, 1, 2], [])

    def test_attaching_an_empty_clause(self):
        clause_lits = [[A, B], []]
        prop = schedule(clause_lits, [0])
        prop.attach(1)
        assert check_against_naive(prop, clause_lits, [0, 1], []) == [1]

    def test_attaching_a_clause_falsified_under_level_zero(self):
        clause_lits = [[A], [B], [A ^ 1, B ^ 1]]
        prop = schedule(clause_lits, [0, 1])
        prop.attach(2)
        cone = check_against_naive(prop, clause_lits, [0, 1, 2], [])
        assert sorted(cone) == [0, 1, 2]

    def test_attaching_a_clause_unit_under_level_zero(self):
        # a, and b -> c, b -> ~c: (~a | b) makes b a level-0 unit.
        clause_lits = [[A], [B ^ 1, C], [B ^ 1, C ^ 1], [A ^ 1, B]]
        prop = schedule(clause_lits, [0, 1, 2])
        prop.attach(3)
        assert check_against_naive(prop, clause_lits, [0, 1, 2, 3], [])

    def test_attaching_a_clause_with_two_free_literals(self):
        # Level 0 falsifies the first literal: the watches move to the
        # two unassigned ones and level 0 is kept.
        clause_lits = [[A], [A ^ 1, B, C]]
        prop = schedule(clause_lits, [0])
        prop.attach(1)
        assert prop._held
        assert sorted(prop._lits[1][:2]) == [B, C]
        assert check_against_naive(prop, clause_lits, [0, 1], [B ^ 1]) \
            is None
        cone = check_against_naive(prop, clause_lits, [0, 1],
                                   [B ^ 1, C ^ 1])
        assert sorted(cone) == [0, 1]
