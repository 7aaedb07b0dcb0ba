"""Hierarchical cooperative resource budgets.

A :class:`Budget` bounds three resources at once — wall-clock time
(a monotonic :func:`time.perf_counter` deadline), SAT conflicts, and
solver queries — and is threaded *cooperatively* through every hot
path: the SAT solver checks it per conflict, BMC per frame, the
diameter engines per step/check, the portfolio per strategy, and the
experiment runner per design.  Nothing is preemptive; a budget only
works if the code under it keeps calling :meth:`Budget.check` /
:meth:`Budget.exhausted` at its call boundaries, which is exactly the
set of boundaries :mod:`repro.obs` already instruments.

Hierarchy
---------

``parent.subbudget(...)`` / ``parent.slice(...)`` create children:

* the child's *deadline* is capped by every ancestor's (a child can
  tighten but never extend its parent's wall clock);
* *conflict* and *query* charges propagate up the chain, so siblings
  share their parent's pool while each can carry a smaller cap of its
  own — ``prove()`` slices its phase budgets this way.  The walk reads
  and charges each node through its per-node pool accessors, so a
  subclass that keeps its pools elsewhere (the work-stealing pool's
  cross-process ``SharedBudget``) is seen and drained by every child;
* :meth:`cancel` flows *down*: cancelling a parent cancels every
  descendant (the flag is discovered by walking the parent chain).

Exhaustion is reported as a structured reason string (see
:mod:`repro.resilience.errors`); :meth:`check` raises the typed
errors, :meth:`exhausted` merely reports — engines that prefer to
return a weaker-but-sound answer (``UNKNOWN``, ``ABORTED``) use the
latter, layer boundaries that must unwind use the former.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from .errors import (
    Cancelled,
    EXHAUSTED_CONFLICTS,
    EXHAUSTED_DEADLINE,
    EXHAUSTED_QUERIES,
    ResourceExhausted,
)

__all__ = ["Budget"]


class Budget:
    """A cooperative budget over wall-clock / conflicts / queries.

    All limits are optional (``None`` = unlimited); a fully unlimited
    budget is legal and costs almost nothing to check.  Limits must be
    non-negative; the deadline is fixed at construction (monotonic
    clock), the conflict/query pools are mutable and shared upward.
    """

    __slots__ = ("name", "parent", "_deadline", "_conflicts_left",
                 "_queries_left", "_cancelled")

    def __init__(self, wall_seconds: Optional[float] = None,
                 conflicts: Optional[int] = None,
                 queries: Optional[int] = None, *,
                 parent: Optional["Budget"] = None,
                 name: str = "budget") -> None:
        for label, value in (("wall_seconds", wall_seconds),
                             ("conflicts", conflicts),
                             ("queries", queries)):
            if value is not None and value < 0:
                raise ValueError(f"{label} must be non-negative, "
                                 f"got {value!r}")
        self.name = name
        self.parent = parent
        deadline = None if wall_seconds is None \
            else time.perf_counter() + wall_seconds
        if parent is not None and parent._deadline is not None:
            deadline = parent._deadline if deadline is None \
                else min(deadline, parent._deadline)
        self._deadline = deadline
        self._conflicts_left = conflicts
        self._queries_left = queries
        self._cancelled = False

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def _chain(self) -> Iterator["Budget"]:
        node: Optional[Budget] = self
        while node is not None:
            yield node
            node = node.parent

    def subbudget(self, wall_seconds: Optional[float] = None,
                  conflicts: Optional[int] = None,
                  queries: Optional[int] = None, *,
                  name: Optional[str] = None) -> "Budget":
        """A child budget; charges propagate up, cancellation down."""
        return Budget(wall_seconds, conflicts, queries, parent=self,
                      name=name or f"{self.name}/sub")

    def slice(self, fraction: float, *,
              name: Optional[str] = None) -> "Budget":
        """A child holding ``fraction`` of the *remaining* resources.

        The natural phase splitter: ``budget.slice(0.4)`` hands a
        phase 40% of whatever wall-clock and conflicts are left right
        now, while cancellation and the parent's own deadline still
        apply.  Unlimited dimensions stay unlimited.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], "
                             f"got {fraction!r}")
        seconds = self.remaining_seconds()
        conflicts = self.remaining_conflicts()
        queries = self.remaining_queries()
        return Budget(
            None if seconds is None else seconds * fraction,
            None if conflicts is None else max(0, int(conflicts
                                                      * fraction)),
            None if queries is None else max(0, int(queries * fraction)),
            parent=self, name=name or f"{self.name}/slice")

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cooperative cancellation of this budget (and, by
        the parent-chain walk, every budget derived from it)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True when this budget or any ancestor was cancelled."""
        return any(node._cancelled for node in self._chain())

    # ------------------------------------------------------------------
    # Remaining resources
    # ------------------------------------------------------------------
    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the effective deadline (None if unlimited)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def remaining_conflicts(self) -> Optional[int]:
        """The tightest conflict pool along the chain (None if all
        unlimited); never negative."""
        tightest: Optional[int] = None
        for node in self._chain():
            own = node._own_conflicts()
            if own is None:
                continue
            value = max(0, own)
            tightest = value if tightest is None else min(tightest, value)
        return tightest

    def remaining_queries(self) -> Optional[int]:
        """The tightest query pool along the chain (None if all
        unlimited); never negative."""
        tightest: Optional[int] = None
        for node in self._chain():
            own = node._own_queries()
            if own is None:
                continue
            value = max(0, own)
            tightest = value if tightest is None else min(tightest, value)
        return tightest

    def conflict_slice(self, default: Optional[int] = None
                       ) -> Optional[int]:
        """The per-call conflict budget to hand one ``Solver.solve``:
        the minimum of ``default`` and the remaining pool (None when
        both are unlimited)."""
        remaining = self.remaining_conflicts()
        if remaining is None:
            return default
        if default is None:
            return remaining
        return min(default, remaining)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge_conflicts(self, n: int = 1) -> None:
        """Deduct ``n`` conflicts from every pool along the chain."""
        for node in self._chain():
            node._spend_conflicts(n)

    def charge_query(self, n: int = 1) -> None:
        """Deduct ``n`` solver queries from every pool along the
        chain."""
        for node in self._chain():
            node._spend_queries(n)

    # ------------------------------------------------------------------
    # Per-node pools (overridden by budgets whose pools live elsewhere)
    # ------------------------------------------------------------------
    def _own_conflicts(self) -> Optional[int]:
        """This node's own conflict pool (None = unlimited)."""
        return self._conflicts_left

    def _own_queries(self) -> Optional[int]:
        """This node's own query pool (None = unlimited)."""
        return self._queries_left

    def _spend_conflicts(self, n: int) -> None:
        if self._conflicts_left is not None:
            self._conflicts_left -= n

    def _spend_queries(self, n: int) -> None:
        if self._queries_left is not None:
            self._queries_left -= n

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def exhausted(self) -> Optional[str]:
        """The exhaustion reason, or None while resources remain.

        Checks the deadline first (the hardest limit), then conflicts,
        then queries.  Does *not* report cancellation — that is a
        distinct condition queried via :attr:`cancelled` and raised by
        :meth:`check`.
        """
        if self._deadline is not None and \
                time.perf_counter() >= self._deadline:
            return EXHAUSTED_DEADLINE
        conflicts = self.remaining_conflicts()
        if conflicts is not None and conflicts <= 0:
            return EXHAUSTED_CONFLICTS
        queries = self.remaining_queries()
        if queries is not None and queries <= 0:
            return EXHAUSTED_QUERIES
        return None

    def check(self) -> None:
        """Raise :class:`Cancelled` / :class:`ResourceExhausted` when
        the budget can no longer be spent; no-op otherwise."""
        if self.cancelled:
            raise Cancelled(budget_name=self.name)
        reason = self.exhausted()
        if reason is not None:
            raise ResourceExhausted(reason, budget_name=self.name)

    def __repr__(self) -> str:
        parts = [f"name={self.name!r}"]
        seconds = self.remaining_seconds()
        if seconds is not None:
            parts.append(f"seconds={seconds:.3f}")
        conflicts = self.remaining_conflicts()
        if conflicts is not None:
            parts.append(f"conflicts={conflicts}")
        queries = self.remaining_queries()
        if queries is not None:
            parts.append(f"queries={queries}")
        if self.cancelled:
            parts.append("cancelled")
        return f"Budget({', '.join(parts)})"
