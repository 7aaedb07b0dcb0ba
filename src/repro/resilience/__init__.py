"""Resource governance: budgets, typed failures, faults.

Layer 0.6 of the stack (between :mod:`repro.obs` and the engines):
PR 1 made every engine *observable*; this package makes them
*governable*.  Exact diameter computation is PSPACE-complete and every
solver-backed engine can blow up on an adversarial design, so every
solve in the library answers to a :class:`Budget` — a cooperative
wall-clock deadline (monotonic clock) that phases slice — and every
failure surfaces through a typed taxonomy
(:class:`ResourceExhausted` / :class:`EngineFailure`) instead of
ad-hoc strings.

Typical use::

    from repro.resilience import Budget

    budget = Budget(wall_seconds=30.0)
    result = prove(net, budget=budget)       # never runs away
    if result.degraded:                      # an engine fell over;
        print(result.exhaustion_reason)      # the bound is still the
                                             # sound structural one

Degradation policy (the part that keeps the answers *sound*): when an
engine exhausts its slice or fails, callers fall back to the
always-terminating structural bounder of [7] — never to the
approximation engines, whose diameter bounds Sections 3.5/3.6 prove
unsound.  The experiment runner completes its table with per-design
error cells rather than dying on the first bad design.

:mod:`repro.resilience.faults` closes the loop: a deterministic
fault-injection harness scripts timeouts, spurious UNKNOWNs, and
crashes at exact solver-call indices so the test-suite can prove every
degradation path is actually exercised.

Stdlib-only and import-cycle-free: nothing here imports the rest of
``repro``, so even ``repro.sat`` can participate.
"""

from .budget import Budget
from .errors import (
    CertificationFailure,
    EngineFailure,
    EXHAUSTED_CONFLICTS,
    EXHAUSTED_DEADLINE,
    EXHAUSTION_REASONS,
    ResilienceError,
    ResourceExhausted,
)
from .faults import (
    FAULT_ACTIONS,
    FAULT_CORRUPT_MODEL,
    FAULT_CRASH,
    FAULT_TIMEOUT,
    FAULT_UNKNOWN,
    FaultPlan,
    active_plan,
    inject,
    on_solve,
)

__all__ = [
    "Budget",
    "CertificationFailure",
    "EngineFailure",
    "EXHAUSTED_CONFLICTS",
    "EXHAUSTED_DEADLINE",
    "EXHAUSTION_REASONS",
    "FAULT_ACTIONS",
    "FAULT_CORRUPT_MODEL",
    "FAULT_CRASH",
    "FAULT_TIMEOUT",
    "FAULT_UNKNOWN",
    "FaultPlan",
    "ResilienceError",
    "ResourceExhausted",
    "active_plan",
    "inject",
    "on_solve",
]
