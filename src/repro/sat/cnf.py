"""CNF literal helpers.

Literal convention (shared with :mod:`repro.sat.solver`): variables are
0-based integers; the literal of variable ``v`` is ``2*v`` for the
positive phase and ``2*v + 1`` for the negative phase.
"""

from __future__ import annotations


def pos(var: int) -> int:
    """Positive literal of ``var``."""
    return var << 1


def neg(var: int) -> int:
    """Negative literal of ``var``."""
    return (var << 1) | 1


def lit_not(lit: int) -> int:
    """Negation of a literal."""
    return lit ^ 1


def lit_var(lit: int) -> int:
    """Variable of a literal."""
    return lit >> 1


def lit_sign(lit: int) -> bool:
    """True iff the literal is negative."""
    return bool(lit & 1)

