"""The DRAT checker's propagator against a naive unit-propagation fixpoint.

:class:`repro.cert.drat._Propagator` propagates on two watched
literals, drops detached clauses from its watch lists lazily and never
repairs watches between checks.  Here it runs random clause sets
through random schedules shaped like the backward checking pass: the
clauses live at the end of the log are attached first, and each clause
is attached at most once, then detached at most once, and never comes
back.  Every check is compared with propagation done the slow way,
sweeping the live clauses until nothing changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cert.drat import _Clause, _Propagator

MAX_VARS = 7

literals = st.integers(0, 2 * MAX_VARS - 1)
# Half the clauses are empty or unit, half are watched (2-5 literals).
clauses = st.lists(literals, max_size=1) \
    | st.lists(literals, min_size=2, max_size=5)


def naive_conflict(clause_lits, roots):
    """Whether unit propagation from ``roots`` over ``clause_lits``
    (lists of literals, lit = 2*var + sign) derives a conflict."""
    value = {}  # var -> bool

    def assign(lit):
        want = not lit & 1
        return value.setdefault(lit >> 1, want) == want

    for lit in roots:
        if not assign(lit):
            return True
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
                    return True
                if len(unassigned) == 1:
                    assign(unassigned.pop())
                    changed = True
    return False


def is_watched(prop, clause):
    """Whether a live clause of two or more literals sits on the watch
    lists of its first two literals (the invariant checks rely on)."""
    if len(clause.lits) < 2:
        return True
    return all(any(c is clause for c in prop._watches[lit])
               for lit in clause.lits[:2])


@settings(max_examples=150, deadline=None)
@given(st.lists(clauses, max_size=10), st.data())
def test_check_matches_naive_fixpoint(clause_lits, data):
    pool = [_Clause(lits, "i") for lits in clause_lits]
    prop = _Propagator(MAX_VARS)
    live_at_end = data.draw(st.integers(0, len(pool)), label="live")
    live = pool[:live_at_end]
    unattached = pool[live_at_end:]
    for clause in live:
        prop.attach(clause)
    steps = data.draw(st.integers(1, 24), label="steps")
    for step in range(steps):
        op = data.draw(st.sampled_from(("attach", "detach", "check")))
        if op == "attach" and unattached:
            index = data.draw(st.integers(0, len(unattached) - 1))
            clause = unattached.pop(index)
            prop.attach(clause)
            live.append(clause)
        elif op == "detach" and live:
            index = data.draw(st.integers(0, len(live) - 1))
            prop.detach(live.pop(index))
        elif op == "check" or step == steps - 1:
            if pool and data.draw(st.booleans(), label="rup-shaped"):
                # A lemma check asserts the negation of its literals.
                index = data.draw(st.integers(0, len(pool) - 1))
                roots = [lit ^ 1 for lit in pool[index].lits]
            else:
                roots = data.draw(st.lists(literals, max_size=3),
                                  label="roots")
            cone = prop.check(roots)
            conflict = naive_conflict([c.lits for c in live], roots)
            assert (cone is not None) == conflict
            if cone is not None:
                assert all(any(c is l for l in live) for c in cone)
                assert naive_conflict([c.lits for c in cone], roots)
            assert all(is_watched(prop, c) for c in live)
