"""Time-frame expansion of netlists into an incremental SAT solver.

:class:`Unrolling` lazily encodes frames 0, 1, 2, ... of a netlist.
Frame ``t`` exposes a literal for every vertex at time ``t``; state
literals at the frame boundaries are chained through register next
edges and latch hold-muxes.  The initial state can be constrained to
``Z`` (for BMC) or left free (for recurrence-diameter and induction
queries).

Every frame is *stamped* from the netlist's compiled ``"frame"``
:class:`~repro.sat.template.FrameTemplate` (encode once, instantiate
per frame by offset arithmetic), which also appends the latch
hold-muxes that produce the next frame's state literals.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import obs
from ..netlist import Netlist
from ..sat import CnfSink, Solver, encode_init_state, pos
from ..sat.template import get_template


class Unrolling:
    """Incrementally unrolled transition structure in a SAT solver."""

    def __init__(
        self,
        net: Netlist,
        solver: Optional[Solver] = None,
        constrain_init: bool = True,
    ) -> None:
        self.net = net
        self.solver = solver or Solver()
        self.sink = CnfSink(self.solver)
        self.constrain_init = constrain_init
        self._template = get_template(net)
        #: per-frame vertex -> literal maps
        self.frames: List[Dict[int, int]] = []
        #: state literals at each frame boundary (index 0 = initial)
        self.state_lits: List[Dict[int, int]] = []
        self._bootstrap()

    def _bootstrap(self) -> None:
        state0 = {vid: pos(self.solver.new_var())
                  for vid in self.net.state_elements}
        self.state_lits.append(state0)
        if self._template.has_const0:
            # Pin the shared true/false variable up front, before the
            # initial-state constraints: this fixes its position in the
            # variable numbering, on which every search depends.
            _ = self.sink.true_lit
        if self.constrain_init:
            encode_init_state(self.net, self.sink, state0)

    def frame(self, t: int) -> Dict[int, int]:
        """Literal map of frame ``t``, encoding frames up to ``t``."""
        while len(self.frames) <= t:
            self._encode_next_frame()
        return self.frames[t]

    def _encode_next_frame(self) -> None:
        t = len(self.frames)
        reg = obs.get_registry()
        with reg.span("encode"):
            lits, nxt = self._template.stamp(self.sink,
                                             self.state_lits[t])
        obs.progress("encode", frame=t, vars=self.solver.num_vars)
        self.frames.append(lits)
        self.state_lits.append(nxt)

    def literal(self, vid: int, t: int) -> int:
        """The literal of vertex ``vid`` at time ``t``."""
        return self.frame(t)[vid]

    def input_values(self, model: List[bool], t: int) -> Dict[int, int]:
        """Decode primary-input values at frame ``t`` from a model."""
        lits = self.frame(t)
        out = {}
        for vid in self.net.inputs:
            lit = lits[vid]
            val = model[lit >> 1]
            out[vid] = int(val if not (lit & 1) else not val)
        return out

    def state_values(self, model: List[bool], t: int) -> Dict[int, int]:
        """Decode state-element values at frame boundary ``t``."""
        out = {}
        for vid, lit in self.state_lits[t].items():
            val = model[lit >> 1]
            out[vid] = int(val if not (lit & 1) else not val)
        return out
