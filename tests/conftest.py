"""Shared test fixtures: the tier-1 hang guard.

A missed deadline check typically shows up as a *hang* (a loop that
stops checking its budget), which CI would otherwise report as an
opaque timeout kill.  The autouse guard below arms stdlib
``faulthandler.dump_traceback_later`` around every test: if any single
test exceeds the ceiling, every thread's traceback is dumped to stderr
and the process exits — a diagnosable failure instead of a silent
wedge.

Tests that legitimately need longer (or want a *tighter* bound, e.g.
the fault-injection suite asserting that degradation stays fast) can
override the ceiling with ``@pytest.mark.timeout_guard(seconds)``.
"""

from __future__ import annotations

import faulthandler

import pytest

#: Per-test wall-clock ceiling, in seconds.  Generous on purpose: the
#: guard exists to catch genuine hangs, not slow days on shared CI.
HANG_GUARD_SECONDS = 300.0

_HAVE_GUARD = hasattr(faulthandler, "dump_traceback_later")


@pytest.fixture(autouse=True)
def _hang_guard(request):
    """Arm a per-test traceback-dump-and-exit timer (stdlib only)."""
    if not _HAVE_GUARD:  # pragma: no cover - always present on CPython
        yield
        return
    marker = request.node.get_closest_marker("timeout_guard")
    seconds = HANG_GUARD_SECONDS
    if marker is not None and marker.args:
        seconds = float(marker.args[0])
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
