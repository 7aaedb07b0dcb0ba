"""The transformation-based diameter bounding (TBV) engine.

Drives the paper's overall flow: apply a strategy of structural
transformations (e.g. ``"COM,RET,COM"``, the pipeline of Tables 1
and 2), run a diameter bounding engine on the final — typically much
smaller — netlist, and back-translate each target's bound to the
original netlist via Theorems 1-4.  "Due to the reduction potential of
these transformations, this theory may enable overapproximate
techniques to yield exponentially tighter diameter bounds."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..netlist import GateType, Netlist
from ..resilience import Budget
from .record import TransformChain, TransformResult
from .theory import back_translate

if False:  # pragma: no cover - import-cycle-free type hints only
    from ..diameter.structural import StructuralAnalysis  # noqa: F401
    from ..transform.redundancy import SweepConfig  # noqa: F401

#: Chains already computed on one netlist under one sweep
#: configuration, keyed by the strategy prefix (token tuple) that
#: produced each; see :meth:`TBVEngine.transform`.
Prefixes = Dict[Tuple[str, ...], TransformChain]

#: Trivial-target statuses.
BOUNDED = "bounded"
PROVEN = "proven"  # target reduced to constant 0: unreachable
TRIVIAL_HIT = "trivial-hit"  # target reduced to constant 1


@dataclass
class TargetReport:
    """Per-target outcome of a TBV run."""

    target: int
    name: Optional[str]
    status: str
    transformed_target: Optional[int] = None
    transformed_bound: Optional[int] = None
    bound: Optional[int] = None


@dataclass
class EngineResult:
    """Outcome of a full TBV run over all targets.

    ``analysis`` is the structural analysis of the final netlist that
    bounded the targets (None under a custom ``bounder``).
    """

    chain: TransformChain
    reports: List[TargetReport] = field(default_factory=list)
    analysis: Optional["StructuralAnalysis"] = None

    @property
    def netlist(self) -> Netlist:
        """The final (fully transformed) netlist."""
        return self.chain.netlist

    def useful(self, threshold: int = 50) -> List[TargetReport]:
        """The paper's ``T'``: targets with a bound below ``threshold``
        (discharged targets count as bound 0)."""
        out = []
        for r in self.reports:
            if r.status == PROVEN:
                out.append(r)
            elif r.bound is not None and r.bound < threshold:
                out.append(r)
        return out

    def average_bound(self, threshold: int = 50) -> float:
        """Average back-translated bound over ``T'`` (the table metric)."""
        useful = self.useful(threshold)
        if not useful:
            return 0.0
        return sum(r.bound or 0 for r in useful) / len(useful)


def _is_constant(net: Netlist, vid: int) -> Optional[int]:
    gate = net.gate(vid)
    if gate.type is GateType.CONST0:
        return 0
    if gate.type is GateType.NOT and \
            net.gate(gate.fanins[0]).type is GateType.CONST0:
        return 1
    return None


def _com(engine: "TBVEngine", net: Netlist, arg: str,
         budget: Optional[Budget]) -> TransformResult:
    from ..transform.redundancy import redundancy_removal
    return redundancy_removal(net, config=engine.sweep_config,
                              budget=budget)


def _strash(engine: "TBVEngine", net: Netlist, arg: str,
            budget: Optional[Budget]) -> TransformResult:
    from ..transform.strash import strash
    return strash(net)


def _ret(engine: "TBVEngine", net: Netlist, arg: str,
         budget: Optional[Budget]) -> TransformResult:
    from ..transform.retime import retime
    return retime(net)


def _coi(engine: "TBVEngine", net: Netlist, arg: str,
         budget: Optional[Budget]) -> TransformResult:
    from ..transform.coi import coi_reduction
    return coi_reduction(net)


def _phase(engine: "TBVEngine", net: Netlist, arg: str,
           budget: Optional[Budget]) -> TransformResult:
    from ..transform.phase import phase_abstract
    return phase_abstract(net)


def _cslow(engine: "TBVEngine", net: Netlist, arg: str,
           budget: Optional[Budget]) -> TransformResult:
    from ..transform.cslow import cslow_abstract
    return cslow_abstract(net, c=int(arg) if arg else None)


#: Strategy tokens and the transform each applies.  The transforms
#: are imported on first use: ``repro.transform`` imports this package.
#: Only ``CSLOW`` takes an argument (``CSLOW:<c>``).
_TRANSFORMS: Dict[str, Callable[..., TransformResult]] = {
    "COM": _com,
    "STRASH": _strash,
    "RET": _ret,
    "COI": _coi,
    "PHASE": _phase,
    "CSLOW": _cslow,
}


def _split_token(token: str) -> Tuple[str, str]:
    """``(name, argument)`` of a strategy token; ValueError if unknown."""
    name, colon, arg = token.partition(":")
    if name not in _TRANSFORMS or \
            (colon and (name != "CSLOW" or not arg.isdigit())):
        raise ValueError(f"unknown strategy token {token!r}")
    return name, arg


class TBVEngine:
    """Applies a transformation strategy and bounds target diameters.

    ``strategy`` is a comma-separated pipeline over the tokens ``COM``
    (redundancy removal), ``STRASH`` (structural-hashing-only
    redundancy removal via an AIG round-trip), ``RET`` (min-register
    normalized retiming), ``COI`` (cone-of-influence reduction),
    ``PHASE`` (phase abstraction) and ``CSLOW[:<c>]`` (c-slow
    abstraction; the factor is inferred when omitted).  ``bounder``
    computes a per-target diameter bound on the *final* netlist and
    defaults to the structural technique of [7]; any engine with the
    same signature may be plugged in — the theory is agnostic.
    """

    def __init__(
        self,
        strategy: str = "COM,RET,COM",
        bounder: Optional[Callable[[Netlist, int], int]] = None,
        sweep_config: Optional["SweepConfig"] = None,
        refine_gc_limit: int = 0,
    ) -> None:
        self.strategy = [tok.strip().upper()
                         for tok in strategy.split(",") if tok.strip()]
        for token in self.strategy:
            _split_token(token)
        self.bounder = bounder
        self.sweep_config = sweep_config
        self.refine_gc_limit = refine_gc_limit

    def transform(self, net: Netlist,
                  budget: Optional[Budget] = None,
                  prefixes: Optional[Prefixes] = None) -> TransformChain:
        """Apply the strategy, returning the provenance chain.

        ``budget`` is checked between strategy tokens (raising
        :class:`repro.resilience.ResourceExhausted`) and threaded into
        the budget-aware transforms; an exhausted COM degrades to fewer
        merges rather than failing.

        ``prefixes`` holds the chains already computed on ``net`` under
        this engine's sweep configuration.  The run resumes from the
        longest stored prefix of its strategy (a chain over another
        netlist is never reused) and stores every step it completes,
        so ``COM,RET,COM`` after ``COM`` sweeps only once.  A step that
        raises or ends with ``budget`` exhausted (a COM that may have
        merged less) is not stored: the next strategy computes it
        again.  Every transform leaves its input netlist unchanged,
        which is what makes the stored chains safe to share.
        """
        chain = TransformChain.identity(net)
        done = 0
        if prefixes is not None:
            for end in range(len(self.strategy), 0, -1):
                stored = prefixes.get(tuple(self.strategy[:end]))
                if stored is not None and stored.original is net:
                    chain, done = stored, end
                    break
        for index in range(done, len(self.strategy)):
            if budget is not None:
                budget.check()
            name, arg = _split_token(self.strategy[index])
            result = _TRANSFORMS[name](self, chain.netlist, arg, budget)
            chain = chain.extend(result)
            if prefixes is not None and \
                    (budget is None or budget.exhausted() is None):
                prefixes[tuple(self.strategy[:index + 1])] = chain
        return chain

    def _skew_free(self, chain: TransformChain, target: int) -> bool:
        """True when the chain views ``target`` without temporal skew.

        A constant-0 *transformed* target proves the original target
        unreachable only then: a retimed target with lag ``-i`` skips
        its first ``i`` time-steps (they live in the retiming stump),
        and a folded target only witnesses one phase, so a constant-0
        observation there is not a proof — merely a bound of 1 to be
        back-translated (Theorems 2/3 still make the BMC window
        sound).
        """
        from .record import StepKind

        vid: Optional[int] = target
        for step in chain.steps:
            if vid is None:
                return True
            if step.kind is StepKind.RETIME:
                if step.lags.get(vid, 0) != 0:
                    return False
            elif step.kind is not StepKind.TRACE_EQUIVALENT:
                return False
            vid = step.target_map.get(vid)
        return True

    def run(self, net: Netlist,
            budget: Optional[Budget] = None,
            prefixes: Optional[Prefixes] = None) -> EngineResult:
        """Transform, bound every target, and back-translate.

        The bounding stage itself is never aborted by ``budget`` (the
        default structural bounder always terminates); the budget
        governs the transformation pipeline and the optional GC
        refinement only.  ``prefixes`` is :meth:`transform`'s.
        """
        from ..diameter.structural import StructuralAnalysis

        chain = self.transform(net, budget=budget, prefixes=prefixes)
        final = chain.netlist
        analysis: Optional[StructuralAnalysis] = None
        if self.bounder is None:
            analysis = StructuralAnalysis(
                final, refine_gc_limit=self.refine_gc_limit,
                budget=budget)
        result = EngineResult(chain=chain, analysis=analysis)
        for target in net.targets:
            name = net.gate(target).name
            mapped = chain.resolve_target(target)
            if mapped is None:
                result.reports.append(TargetReport(
                    target, name, PROVEN, None, None, 0))
                continue
            const = _is_constant(final, mapped)
            if const == 0:
                if self._skew_free(chain, target):
                    result.reports.append(TargetReport(
                        target, name, PROVEN, mapped, 0, 0))
                else:
                    # Constant under skew: a 1-step bound on the
                    # transformed netlist, back-translated as usual.
                    result.reports.append(TargetReport(
                        target, name, BOUNDED, mapped, 1,
                        back_translate(chain, target, 1)))
                continue
            if const == 1:
                result.reports.append(TargetReport(
                    target, name, TRIVIAL_HIT, mapped, 1,
                    back_translate(chain, target, 1)))
                continue
            if analysis is not None:
                raw = analysis.bound(mapped)
            else:
                raw = self.bounder(final, mapped)
            result.reports.append(TargetReport(
                target, name, BOUNDED, mapped, raw,
                back_translate(chain, target, raw)))
        return result
