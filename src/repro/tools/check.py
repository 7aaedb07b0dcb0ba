"""CLI: complete bounded verification of a netlist file's targets.

Usage::

    python -m repro.tools.check design.bench [--strategy COM,RET,COM]
        [--max-depth 100] [--method bmc|induction|cegar]
        [--vcd out.vcd]

Computes a back-translated diameter bound per target, then discharges
it: BMC to the bound (complete), k-induction, or localization
refinement.  Falsified targets can dump a counterexample waveform.

``--certify`` arms the :mod:`repro.cert` layer for the whole run:
every UNSAT window is DRAT-checked, every counterexample is replayed
through the simulator, and a verdict that fails its check aborts the
target with a nonzero exit instead of being reported.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from typing import Optional, Sequence, Union

from .. import obs
from ..cert import use_certification
from ..core import TBVEngine
from ..netlist import Netlist, NetlistError
from ..resilience import CertificationFailure
from ..transform.localize_cegar import LocalizationResult, \
    localization_refinement
from ..unroll import BMCResult, bmc, k_induction
from .io import at_least, check_writable, load_or_exit
from .vcd import counterexample_to_vcd


def _cert_summary() -> str:
    """One-line certification tally from the active registry."""
    reg = obs.get_registry()
    checked = reg.counter_value("cert.checked")
    failed = reg.counter_value("cert.failed")
    lemmas = reg.counter_value("cert.lemmas_checked")
    hinted = reg.counter_value("cert.lemmas_hinted")
    trimmed = reg.counter_value("cert.lemmas_trimmed")
    return (f"certification: {checked} check(s), {failed} failure(s), "
            f"{lemmas} lemma(s) verified ({hinted} on their hints), "
            f"{trimmed} trimmed")


def _print_verdict(label: str, net: Netlist, target: int,
                   check: Union[BMCResult, LocalizationResult],
                   vcd: Optional[str], detail: str = "") -> bool:
    """Print one verdict line of any ``--method``.

    A falsified target reports the depth of its hit instead of
    ``detail`` and, when ``vcd`` names a file, dumps its waveform
    there.  A certified verdict carries ``[certified]``.  Returns
    True when the waveform was written.
    """
    waveform = ""
    if check.status == "falsified":
        detail = f" at depth {check.counterexample.depth}"
        if vcd:
            with open(vcd, "w") as handle:
                handle.write(counterexample_to_vcd(
                    net, target, check.counterexample))
            waveform = f" (waveform: {vcd})"
    if check.certified:
        detail += " [certified]"
    print(f"  {label:<20} {check.status.upper()}{detail}{waveform}")
    return bool(waveform)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; nonzero when any target is falsified (or,
    under ``--certify``, when any verdict fails certification)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("netlist", help=".bench or .aag file")
    parser.add_argument("--strategy", default="COM,RET,COM")
    parser.add_argument("--max-depth", type=at_least(int, 0), default=100)
    parser.add_argument("--method",
                        choices=["bmc", "induction", "cegar"],
                        default="bmc")
    parser.add_argument("--vcd", default=None,
                        help="dump first counterexample as VCD")
    parser.add_argument("--certify", action="store_true",
                        help="DRAT-check UNSAT verdicts and replay "
                             "counterexample witnesses; certification "
                             "failures exit nonzero")
    args = parser.parse_args(argv)
    try:
        engine = TBVEngine(args.strategy)
    except ValueError as exc:
        parser.error(str(exc))
    if args.vcd:
        check_writable(parser, args.vcd)

    net = load_or_exit(parser, args.netlist)
    if not net.targets:
        parser.error("no targets to check")
    print(f"loaded {net}")
    from ..netlist import validate as validate_netlist

    for issue in validate_netlist(net):
        print(f"  lint: {issue.severity}[{issue.code}] {issue.message}")
    failures = 0
    cert_failures = 0
    vcd = args.vcd  # cleared once the first counterexample is dumped
    scope = use_certification(True) if args.certify else nullcontext()
    with scope:
        if args.method == "bmc":
            try:
                result = engine.run(net)
            except NetlistError as exc:
                parser.error(str(exc))
            for report in result.reports:
                label = report.name or f"t{report.target}"
                if report.status == "proven":
                    print(f"  {label:<20} PROVEN (by transformation)")
                    continue
                try:
                    check = bmc(net, report.target,
                                max_depth=args.max_depth,
                                complete_bound=report.bound)
                except CertificationFailure as exc:
                    cert_failures += 1
                    print(f"  {label:<20} CERTIFICATION FAILED "
                          f"({exc})")
                    continue
                detail = ""
                if check.status == "bounded":
                    detail = (f" (bound {report.bound} exceeds depth "
                              f"budget {args.max_depth})")
                if check.status == "falsified":
                    failures += 1
                if _print_verdict(label, net, report.target, check, vcd,
                                  detail):
                    vcd = None
        elif args.method == "induction":
            for target in net.targets:
                label = net.gate(target).name or f"t{target}"
                try:
                    check = k_induction(net, target,
                                        max_k=args.max_depth)
                except CertificationFailure as exc:
                    cert_failures += 1
                    print(f"  {label:<20} CERTIFICATION FAILED "
                          f"({exc})")
                    continue
                detail = ""
                if check.status == "proven":
                    detail = f" (k = {check.depth_checked})"
                elif check.status == "bounded":
                    detail = (f" (not inductive up to k = "
                              f"{check.depth_checked})")
                if check.status == "falsified":
                    failures += 1
                if _print_verdict(label, net, target, check, vcd,
                                  detail):
                    vcd = None
        else:
            for target in net.targets:
                label = net.gate(target).name or f"t{target}"
                try:
                    result = localization_refinement(
                        net, target, max_depth=args.max_depth)
                except CertificationFailure as exc:
                    cert_failures += 1
                    print(f"  {label:<20} CERTIFICATION FAILED "
                          f"({exc})")
                    continue
                if result.status == "falsified":
                    failures += 1
                detail = (f" ({result.iterations} refinement(s), "
                          f"{result.abstraction_registers} register(s) "
                          "kept)")
                if _print_verdict(label, net, target, result, vcd,
                                  detail):
                    vcd = None
    if args.certify:
        print(f"  {_cert_summary()}")
    if cert_failures:
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
