"""Command-line tools and trace utilities.

* ``python -m repro.tools.bound``   — per-target diameter bounds
* ``python -m repro.tools.check``   — complete bounded verification
* ``python -m repro.tools.convert`` — BENCH <-> AIGER conversion
* ``python -m repro.tools.trace``   — summarise, export, fold and diff
  streamed traces
* ``python -m repro.tools.report``  — one HTML page from a
  ``perf/run.py --out`` results file
* :mod:`repro.tools.vcd`            — VCD waveform dumping
"""

from .io import load_netlist, save_netlist
from .vcd import counterexample_to_vcd, trace_to_vcd

__all__ = [
    "counterexample_to_vcd",
    "load_netlist",
    "save_netlist",
    "trace_to_vcd",
]
