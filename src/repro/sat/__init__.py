"""CDCL SAT solving, CNF literal helpers, and Tseitin netlist
encoding."""

from .cnf import lit_not, lit_sign, lit_var, neg, pos
from .solver import SAT, UNKNOWN, UNSAT, Solver
from .template import (
    FrameTemplate,
    clear_template_cache,
    compile_template,
    get_template,
    netlist_has_const0,
)
from .tseitin import (
    CnfSink,
    encode_and,
    encode_equiv,
    encode_frame,
    encode_init_state,
    encode_mux,
    encode_or,
    encode_xor2,
)

__all__ = [
    "CnfSink",
    "FrameTemplate",
    "SAT",
    "Solver",
    "UNKNOWN",
    "UNSAT",
    "clear_template_cache",
    "compile_template",
    "get_template",
    "netlist_has_const0",
    "encode_and",
    "encode_equiv",
    "encode_frame",
    "encode_init_state",
    "encode_mux",
    "encode_or",
    "encode_xor2",
    "lit_not",
    "lit_sign",
    "lit_var",
    "neg",
    "pos",
]
