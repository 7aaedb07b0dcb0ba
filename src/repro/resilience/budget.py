"""Cooperative wall-clock deadlines.

A :class:`Budget` is a monotonic :func:`time.perf_counter` deadline
threaded *cooperatively* through every hot path: the SAT solver checks
it per conflict, BMC per frame, the diameter engines per step/check,
the portfolio per strategy, and the experiment runner per design.
Nothing is preemptive; a budget only works if the code under it keeps
calling :meth:`Budget.check` / :meth:`Budget.exhausted` at its call
boundaries, which is exactly the set of boundaries :mod:`repro.obs`
already instruments.  How much work one solver call may do is a
separate, per-call cap (``Solver.solve(conflict_budget=...)``).

Slices
------

``budget.slice(fraction)`` derives a child holding ``fraction`` of the
seconds left right now — ``prove()`` slices its phase budgets this
way.  The child's deadline is fixed from one clock reading and never
passes its parent's, so the child needs no reference to its parent.

Exhaustion is reported as a structured reason string (see
:mod:`repro.resilience.errors`); :meth:`check` raises the typed
error, :meth:`exhausted` merely reports — engines that prefer to
return a weaker-but-sound answer (``UNKNOWN``, ``ABORTED``) use the
latter, layer boundaries that must unwind use the former.
"""

from __future__ import annotations

import time
from typing import Optional

from .errors import EXHAUSTED_DEADLINE, ResourceExhausted

__all__ = ["Budget"]


class Budget:
    """A cooperative wall-clock deadline.

    ``wall_seconds=None`` means no deadline; an unlimited budget is
    legal and costs almost nothing to check.  The deadline is fixed at
    construction (monotonic clock).
    """

    __slots__ = ("name", "_deadline")

    def __init__(self, wall_seconds: Optional[float] = None, *,
                 name: str = "budget") -> None:
        if wall_seconds is not None and wall_seconds < 0:
            raise ValueError(f"wall_seconds must be non-negative, "
                             f"got {wall_seconds!r}")
        self.name = name
        self._deadline = None if wall_seconds is None \
            else time.perf_counter() + wall_seconds

    def slice(self, fraction: float, *,
              name: Optional[str] = None) -> "Budget":
        """A child holding ``fraction`` of the *remaining* seconds.

        The natural phase splitter: ``budget.slice(0.4)`` hands a
        phase 40% of whatever wall-clock is left right now.  The
        child's deadline is ``now + fraction * (deadline - now)`` for
        one reading ``now`` of the clock, so it never passes this
        budget's, and a slice of an exhausted budget is exhausted.  An
        unlimited budget's slices stay unlimited.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], "
                             f"got {fraction!r}")
        child = Budget(name=name or f"{self.name}/slice")
        remaining = self.remaining_seconds()
        if remaining is not None:
            # The same instant, written so that rounding cannot move
            # it past this budget's deadline.
            child._deadline = self._deadline - (1.0 - fraction) * remaining
        return child

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
        deadline has passed, None before."""
        if self._deadline is not None and \
                time.perf_counter() >= self._deadline:
            return EXHAUSTED_DEADLINE
        return None

    def check(self) -> None:
        """Raise :class:`ResourceExhausted` once the deadline has
        passed; no-op otherwise."""
        reason = self.exhausted()
        if reason is not None:
            raise ResourceExhausted(reason, budget_name=self.name)

    def __repr__(self) -> str:
        parts = [f"name={self.name!r}"]
        seconds = self.remaining_seconds()
        if seconds is not None:
            parts.append(f"seconds={seconds:.3f}")
        return f"Budget({', '.join(parts)})"
