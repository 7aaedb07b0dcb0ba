"""Sequential equivalence checking via miters.

Trace equivalence (Definition 4) is the premise of Theorem 1, so the
library can *machine-check* it: a miter is the product machine of two
netlists sharing their primary inputs (matched by name), with one
target per compared signal pair asserting disagreement.  The targets
are unreachable iff the signals are sequentially equivalent from the
initial states.

Discharging the miter exercises the same engines it certifies —
redundancy removal rediscovers the cross-netlist equivalences and
collapses the disagreement targets to constant 0 (with k-induction and
complete BMC as fallbacks) — a pleasing self-application the tests
lean on to verify the COM/STRASH/retiming engines formally rather than
just by simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist, NetlistError

#: Verdicts of :func:`check_equivalence`.
EQUIVALENT = "equivalent"
DIFFERENT = "different"
UNDECIDED = "undecided"


def build_miter(
    net_a: Netlist,
    net_b: Netlist,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    name: Optional[str] = None,
) -> Tuple[Netlist, List[int]]:
    """The product machine with per-pair disagreement targets.

    Primary inputs are matched by name (both copies read one shared
    input); ``pairs`` defaults to zipping the two netlists' target
    lists.  Returns ``(miter, disagreement_targets)``.
    """
    if pairs is None:
        if len(net_a.targets) != len(net_b.targets):
            raise NetlistError(
                "target counts differ; pass explicit pairs")
        pairs = list(zip(net_a.targets, net_b.targets))
    miter = Netlist(name or f"miter({net_a.name},{net_b.name})")
    shared_inputs: Dict[str, int] = {}

    def copy_into(src: Netlist, tag: str) -> Dict[int, int]:
        mapping: Dict[int, int] = {}
        # State elements first (placeholder fanins) for feedback.
        placeholder = miter.const0()
        for vid, gate in src.gates():
            if gate.is_state:
                mapping[vid] = miter.add_gate(
                    gate.type, (placeholder, placeholder),
                    name=f"{tag}_{gate.name}" if gate.name else None)
        from ..netlist import topological_order

        for vid in topological_order(src):
            gate = src.gate(vid)
            if vid in mapping:
                continue
            if gate.type is GateType.CONST0:
                mapping[vid] = miter.const0()
            elif gate.type is GateType.INPUT:
                key = gate.name or f"{tag}__anon{vid}"
                if gate.name and gate.name in shared_inputs:
                    mapping[vid] = shared_inputs[gate.name]
                else:
                    new = miter.add_gate(GateType.INPUT, (),
                                         name=gate.name)
                    if gate.name:
                        shared_inputs[gate.name] = new
                    mapping[vid] = new
            else:
                fanins = tuple(mapping[f] for f in gate.fanins)
                mapping[vid] = miter.add_gate(gate.type, fanins)
        for vid, gate in src.gates():
            if gate.is_state:
                fanins = tuple(mapping[f] for f in gate.fanins)
                miter.set_fanins(mapping[vid], fanins)
        return mapping

    map_a = copy_into(net_a, "a")
    map_b = copy_into(net_b, "b")
    targets: List[int] = []
    for va, vb in pairs:
        diff = miter.add_gate(GateType.XOR,
                              (map_a[va], map_b[vb]))
        miter.add_target(diff)
        targets.append(diff)
    return miter, targets


@dataclass
class EquivalenceResult:
    """Outcome of a sequential equivalence check."""

    verdict: str
    method: str
    counterexample_depth: Optional[int] = None
    per_pair: List[str] = field(default_factory=list)


def check_equivalence(
    net_a: Netlist,
    net_b: Netlist,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_depth: int = 32,
    induction_k: int = 6,
    sweep_config=None,
) -> EquivalenceResult:
    """Decide sequential equivalence of the paired signals.

    Strategy: COM on the miter (cross-netlist sweeping usually proves
    all disagreement targets constant 0), then k-induction up to
    ``induction_k``, whose base window searches ``max_depth`` frames
    (at least ``induction_k + 1``) for counterexamples; UNDECIDED when
    both run out.
    """
    from ..core.engine import PROVEN, TRIVIAL_HIT, TBVEngine
    from ..unroll import FALSIFIED, PROVEN as BMC_PROVEN, k_induction

    miter, targets = build_miter(net_a, net_b, pairs)
    reports = TBVEngine("COM", sweep_config=sweep_config).run(miter)\
        .reports
    per_pair: List[str] = []
    worst = EQUIVALENT
    depth = None
    for target, report in zip(targets, reports):
        if report.status == PROVEN:
            per_pair.append(EQUIVALENT)
            continue
        if report.status == TRIVIAL_HIT:
            per_pair.append(DIFFERENT)
            worst = DIFFERENT
            depth = 0
            continue
        induct = k_induction(miter, target, max_k=induction_k,
                             base_depth=max_depth)
        if induct.status == BMC_PROVEN:
            per_pair.append(EQUIVALENT)
        elif induct.status == FALSIFIED:
            per_pair.append(DIFFERENT)
            worst = DIFFERENT
            depth = induct.counterexample.depth
        else:
            per_pair.append(UNDECIDED)
            if worst == EQUIVALENT:
                worst = UNDECIDED
    method = "com-sweep" if all(p == EQUIVALENT for p in per_pair) \
        else "mixed"
    return EquivalenceResult(verdict=worst, method=method,
                             counterexample_depth=depth,
                             per_pair=per_pair)
