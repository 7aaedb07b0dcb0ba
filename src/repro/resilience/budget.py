"""Hierarchical, cancellable wall-clock deadlines.

A :class:`Budget` is a monotonic :func:`time.perf_counter` deadline
threaded *cooperatively* through every hot path: the SAT solver checks
it per conflict, BMC per frame, the diameter engines per step/check,
the portfolio per strategy, and the experiment runner per design.
Nothing is preemptive; a budget only works if the code under it keeps
calling :meth:`Budget.check` / :meth:`Budget.exhausted` at its call
boundaries, which is exactly the set of boundaries :mod:`repro.obs`
already instruments.  How much work one solver call may do is a
separate, per-call cap (``Solver.solve(conflict_budget=...)``).

Hierarchy
---------

``parent.subbudget(...)`` / ``parent.slice(...)`` create children:

* the child's *deadline* is capped by every ancestor's (a child can
  tighten but never extend its parent's wall clock) — ``prove()``
  slices its phase budgets this way;
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
from typing import Optional

from .errors import Cancelled, EXHAUSTED_DEADLINE, ResourceExhausted

__all__ = ["Budget"]


class Budget:
    """A cooperative, cancellable wall-clock deadline.

    ``wall_seconds=None`` means no deadline of its own; a fully
    unlimited budget is legal and costs almost nothing to check.  The
    deadline is fixed at construction (monotonic clock) and capped by
    the parent's.
    """

    __slots__ = ("name", "parent", "_deadline", "_cancelled")

    def __init__(self, wall_seconds: Optional[float] = None, *,
                 parent: Optional["Budget"] = None,
                 name: str = "budget") -> None:
        if wall_seconds is not None and wall_seconds < 0:
            raise ValueError(f"wall_seconds must be non-negative, "
                             f"got {wall_seconds!r}")
        self.name = name
        self.parent = parent
        deadline = None if wall_seconds is None \
            else time.perf_counter() + wall_seconds
        if parent is not None and parent._deadline is not None:
            deadline = parent._deadline if deadline is None \
                else min(deadline, parent._deadline)
        self._deadline = deadline
        self._cancelled = False

    # ------------------------------------------------------------------
    # Hierarchy
    # ------------------------------------------------------------------
    def subbudget(self, wall_seconds: Optional[float] = None, *,
                  name: Optional[str] = None) -> "Budget":
        """A child budget: deadline capped by this one, cancelled with
        it."""
        return Budget(wall_seconds, parent=self,
                      name=name or f"{self.name}/sub")

    def slice(self, fraction: float, *,
              name: Optional[str] = None) -> "Budget":
        """A child holding ``fraction`` of the *remaining* seconds.

        The natural phase splitter: ``budget.slice(0.4)`` hands a
        phase 40% of whatever wall-clock is left right now, while
        cancellation and the parent's own deadline still apply.  An
        unlimited budget's slices stay unlimited.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], "
                             f"got {fraction!r}")
        seconds = self.remaining_seconds()
        return Budget(None if seconds is None else seconds * fraction,
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
        node: Optional[Budget] = self
        while node is not None:
            if node._cancelled:
                return True
            node = node.parent
        return False

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the effective deadline (None if unlimited)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def exhausted(self) -> Optional[str]:
        """:data:`~repro.resilience.EXHAUSTED_DEADLINE` once the
        deadline has passed, None before.

        Does *not* report cancellation — that is a distinct condition
        queried via :attr:`cancelled` and raised by :meth:`check`.
        """
        if self._deadline is not None and \
                time.perf_counter() >= self._deadline:
            return EXHAUSTED_DEADLINE
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
        if self.cancelled:
            parts.append("cancelled")
        return f"Budget({', '.join(parts)})"
