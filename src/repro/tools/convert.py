"""CLI: convert netlists between BENCH and ASCII AIGER.

Usage::

    python -m repro.tools.convert in.bench out.aag [--transform COM]

Optionally applies a transformation strategy before writing (handy for
shipping a COM-reduced netlist to another tool).
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from ..core import TBVEngine
from ..netlist import NetlistError
from .io import load_or_exit, save_netlist


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", help="input .bench or .aag file")
    parser.add_argument("destination", help="output .bench or .aag file")
    parser.add_argument("--transform", default="",
                        help="optional strategy to apply first")
    args = parser.parse_args(argv)
    try:
        engine = TBVEngine(args.transform)
    except ValueError as exc:
        parser.error(str(exc))

    net = load_or_exit(parser, args.source)
    print(f"loaded {net}")
    try:
        if args.transform:
            net = engine.transform(net).netlist
            print(f"after {args.transform}: {net}")
        save_netlist(net, args.destination)
    except (OSError, NetlistError) as exc:
        parser.error(str(exc))
    print(f"wrote {args.destination}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
