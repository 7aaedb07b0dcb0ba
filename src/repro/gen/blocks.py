"""Parameterized structural building blocks for synthetic workloads.

Each block deliberately instantiates one of the structural classes of
the CAV'02 diameter bound (CC / AC / MC / QC / GC), so the generated
designs exercise exactly the features the paper's experiments measure.
Blocks return the signals a target may observe.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..netlist import NetlistBuilder


def add_pipeline(b: NetlistBuilder, source: Sequence[int], depth: int,
                 prefix: str) -> List[int]:
    """AC block: a ``depth``-stage pipeline over the ``source`` word.

    Contributes ``depth * len(source)`` acyclic registers; retiming can
    absorb all of them into target lags.
    """
    word = list(source)
    for stage in range(depth):
        regs = b.registers(len(word), prefix=f"{prefix}_s{stage}_")
        b.connect_word(regs, word)
        word = regs
    return word


def add_constant_registers(b: NetlistBuilder, count: int,
                           prefix: str) -> List[int]:
    """CC block: self-holding registers stuck at their initial values."""
    out = []
    for k in range(count):
        init = b.const1 if k % 2 else b.const0
        r = b.register(None, init=init, name=f"{prefix}_c{k}")
        b.connect(r, r)
        out.append(r)
    return out


def add_memory(b: NetlistBuilder, rows: int, width: int, prefix: str,
               data: Optional[Sequence[int]] = None) -> List[int]:
    """MC block: a ``rows x width`` one-row-per-cycle memory.

    Rows are selected by a one-hot decode of fresh address inputs, so
    the structural analysis can prove the row selects mutually
    exclusive and cluster the cells into a single memory component.
    """
    addr_bits = max(1, (rows - 1).bit_length())
    addr = b.inputs(addr_bits, prefix=f"{prefix}_a")
    we = b.input(f"{prefix}_we")
    if data is None:
        data = b.inputs(width, prefix=f"{prefix}_d")
    sels = b.onehot_decode(addr)[:rows]
    outputs = []
    for r in range(rows):
        sel = b.and_(we, sels[r])
        for w in range(width):
            cell = b.register(name=f"{prefix}_m{r}_{w}")
            b.connect(cell, b.mux(sel, data[w % len(data)], cell))
            outputs.append(cell)
    return outputs


def add_queue(b: NetlistBuilder, stages: int, width: int, prefix: str,
              data: Optional[Sequence[int]] = None) -> List[int]:
    """QC block: an enable-gated shift queue of ``stages`` rows."""
    en = b.input(f"{prefix}_en")
    if data is None:
        data = b.inputs(width, prefix=f"{prefix}_d")
    word = list(data)
    tails = []
    for s in range(stages):
        regs = []
        for w in range(width):
            cell = b.register(name=f"{prefix}_q{s}_{w}")
            b.connect(cell, b.mux(en, word[w], cell))
            regs.append(cell)
        word = regs
        tails.extend(regs)
    return tails


def add_fsm(b: NetlistBuilder, bits: int, prefix: str,
            rng: Optional[random.Random] = None,
            inputs: Optional[Sequence[int]] = None,
            redundant: int = 0) -> List[int]:
    """GC block: a ``bits``-register strongly-connected controller.

    The next-state functions mix the state ring with external inputs,
    guaranteeing a single SCC.  ``redundant`` extra registers duplicate
    existing ones (sequentially equivalent — COM fodder that shrinks
    the GC, exponentially tightening its bound).
    """
    rng = rng or random.Random(bits)
    if inputs is None:
        inputs = [b.input(f"{prefix}_i0")]
    regs = b.registers(bits, prefix=f"{prefix}_f")
    for k, reg in enumerate(regs):
        ring = regs[(k + 1) % bits]
        # Never pick the ring register itself: xor(ring, ring) would
        # fold to constant 0 and sever the ring edge.
        candidates = [r for r in regs if r != ring]
        other = rng.choice(candidates) if candidates else ring
        stim = inputs[k % len(inputs)]
        # Every next-state function lets the stimulus inject activity
        # even from the all-zero state (else the component would be
        # provably stuck at its initial value — a CC, not a GC), and
        # the forms alternate linear/non-linear so the ring carries no
        # accidental parity invariants that sequential sweeping could
        # (correctly) exploit to shrink the component.
        if k % 2 == 0:
            nxt = b.mux(stim, b.not_(other), ring)
        else:
            nxt = b.xor(ring, b.and_(stim, b.not_(other)))
        b.connect(reg, nxt)
    outputs = list(regs)
    for k in range(redundant):
        twin_src = regs[k % bits]
        gate = b.net.gate(twin_src)
        twin = b.register(gate.fanins[0], name=f"{prefix}_dup{k}")
        outputs.append(twin)
    return outputs


def add_toggle_ring(b: NetlistBuilder, length: int, prefix: str
                    ) -> List[int]:
    """GC block with known small diameter: an inverting token ring."""
    regs = [b.register(name=f"{prefix}_r{k}") for k in range(length)]
    for k in range(length - 1):
        b.connect(regs[k + 1], regs[k])
    b.connect(regs[0], b.not_(regs[-1]))
    return regs
