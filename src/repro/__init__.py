"""Reproduction of "Enhanced Diameter Bounding via Structural
Transformation" (Baumgartner & Kuehlmann, DATE 2004).

Subpackages
-----------
``repro.netlist``
    Gate-level netlist model, builder, traversal, BENCH I/O.
``repro.sim``
    Two- and three-valued simulation.
``repro.obs``
    Instrumentation: hierarchical timers, counters, event traces.
``repro.sat``
    CDCL SAT solver, Tseitin encoding, frame templates.
``repro.bdd``
    ROBDD package and netlist-cone BDD construction.
``repro.unroll``
    Time-frame expansion, BMC, k-induction.
``repro.transform``
    Structural transformations: COM redundancy removal, retiming,
    phase/c-slow abstraction, target enlargement, localization, ...
``repro.diameter``
    Diameter bounding engines (structural, recurrence, exact).
``repro.core``
    The paper's contribution: transformation provenance records,
    Theorems 1-4 back-translation, and the TBV engine.
``repro.gen``
    Synthetic workload generators (ISCAS89/GP profiles).
``repro.experiments``
    Regeneration of the paper's Tables 1 and 2.
"""

__version__ = "1.0.0"
