"""Shared netlist-file loading/saving and argument checks for the
command-line tools.

Formats are selected by extension: ``.bench`` (ISCAS89), ``.aag``
(ASCII AIGER), ``.aig`` (binary AIGER) and ``.blif``.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable

from ..netlist import (
    Netlist,
    NetlistError,
    aig_to_netlist,
    netlist_to_aig,
    parse_aiger,
    parse_bench,
    parse_blif,
    write_aiger,
    write_bench,
    write_blif,
)


def load_netlist(path: str) -> Netlist:
    """Load a netlist from a ``.bench``, ``.aag``, ``.aig`` or
    ``.blif`` file."""
    name = os.path.splitext(os.path.basename(path))[0]
    ext = os.path.splitext(path)[1].lower()
    if ext == ".aig":
        # Binary AIGER is not text; hand the raw bytes to the parser.
        with open(path, "rb") as handle:
            net, _ = aig_to_netlist(parse_aiger(handle.read(),
                                                name=name))
            return net
    with open(path) as handle:
        text = handle.read()
    if ext == ".bench":
        return parse_bench(text, name=name)
    if ext == ".aag":
        net, _ = aig_to_netlist(parse_aiger(text, name=name))
        return net
    if ext == ".blif":
        return parse_blif(text, name=name)
    raise NetlistError(f"unsupported netlist format: {path!r} "
                       f"(expected .bench, .blif, .aag or .aig)")


def load_or_exit(parser: argparse.ArgumentParser, path: str) -> Netlist:
    """:func:`load_netlist` for a CLI: a missing, unreadable or
    malformed file ends in ``parser.error`` (exit 2, one ``error:``
    line) instead of a traceback."""
    try:
        return load_netlist(path)
    except (OSError, NetlistError) as exc:
        parser.error(str(exc))


def save_netlist(net: Netlist, path: str) -> None:
    """Save a netlist to a ``.bench`` or ``.aag`` file."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".bench":
        text = write_bench(net)
    elif ext == ".blif":
        text = write_blif(net)
    elif ext == ".aag":
        aig, _ = netlist_to_aig(net)
        text = write_aiger(aig)
    else:
        raise NetlistError(f"unsupported netlist format: {path!r}")
    with open(path, "w") as handle:
        handle.write(text)


def write_or_exit(parser: argparse.ArgumentParser, path: str,
                  text: str) -> None:
    """Write ``text`` to ``path`` for a CLI: a path that cannot be
    written ends in ``parser.error`` (exit 2, one ``error:`` line)
    instead of a traceback."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror}")


def check_writable(parser: argparse.ArgumentParser, path: str) -> None:
    """Refuse ``path`` as :func:`write_or_exit` would, before a CLI
    does the work whose output goes there.  The probe opens ``path``
    for appending, so a file already there keeps its contents, and a
    file the probe creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror}")
    if not existed:
        os.remove(path)


def _checked(kind: Callable, ok: Callable, rule: str) -> Callable:
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {rule}, got {text}")
        return value
    # argparse names the type in "invalid <name> value" messages.
    parse.__name__ = kind.__name__
    return parse


def at_least(kind: Callable, low) -> Callable:
    """An argparse ``type=`` for a ``kind`` number ``>= low``: anything
    else (NaN too) is a usage error (exit 2, one ``error:`` line)."""
    return _checked(kind, lambda value: value >= low, f">= {low}")


def above(kind: Callable, low) -> Callable:
    """:func:`at_least` for a ``kind`` number ``> low``."""
    return _checked(kind, lambda value: value > low, f"> {low}")
