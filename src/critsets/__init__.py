"""Exact computation of critical sets of proper graph colorings.

The namespace is lazy (PEP 562): ``import critsets`` loads no submodule,
and each exported name loads its own module on first use, so
``from critsets import four_params`` loads graphs, coloring, critical and
errors but not sudoku, reductions, scan or formulas.  The CLI relies on
this to load only what a subcommand runs:

- every subcommand: graphs, coloring, critical and errors;
- ``table`` and ``scan``: also scan;
- ``sudoku``, and any ``sudoku:N`` graph source: also sudoku;
- ``reduce``: also reductions.

No subcommand loads formulas.  From the standard library the four core
modules import only base64, random, typing, functools, itertools and
operator (the records are `typing.NamedTuple`s, and `Graph` and `Coloring`
plain value classes), and only the CLI commands that write JSON or CSV
import json or csv.
"""

from importlib import import_module

_EXPORTS = {
    "coloring": (
        "Coloring",
        "chromatic_number",
        "colorful_vertices",
        "count_colorings_extending",
        "enumerate_optimal_colorings",
        "is_uniquely_colorable",
    ),
    "critical": (
        "CriticalCertificate",
        "ParamQuad",
        "ScsLcs",
        "forced_vertices",
        "four_params",
        "is_critical",
        "is_determining",
        "scs_lcs_for_coloring",
    ),
    "errors": (
        "CritsetsError",
        "Graph6Error",
        "InternalError",
        "InvalidParameterError",
        "SizeLimitError",
        "UnsupportedError",
    ),
    "formulas": (
        "bipartite_params",
        "cycle_params",
        "proof_coloring_cycle",
        "uniquely_colorable_params",
    ),
    "graphs": (
        "Graph",
        "add_pendant_to_each",
        "atlas_graphs",
        "canonical_form",
        "cartesian_product",
        "complement",
        "disjoint_union",
        "edge_union",
        "emit_graph6",
        "enumerate_graphs",
        "make_complete",
        "make_cycle",
        "make_empty",
        "make_path",
        "parse_graph6",
        "strong_product",
    ),
    "reductions": (
        "ReductionInstance",
        "ReductionReport",
        "proof_coloring_olcs",
        "proof_coloring_ulcs",
        "reduce_olcs",
        "reduce_ulcs",
        "verify_reduction_small",
    ),
    "sudoku": (
        "MncResult",
        "SudokuStructure",
        "TrialStats",
        "certify_fair_puzzle",
        "mnc_exhaustive",
        "random_determining_set",
        "sudoku_graph",
        "trial_campaign",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
