"""Exact computation of critical sets of proper graph colorings."""

from .coloring import (
    Coloring,
    chromatic_number,
    colorful_vertices,
    count_colorings_extending,
    enumerate_optimal_colorings,
    is_uniquely_colorable,
)
from .critical import (
    CriticalCertificate,
    ParamQuad,
    ScsLcs,
    forced_vertices,
    four_params,
    is_critical,
    is_determining,
    scs_lcs_for_coloring,
)
from .errors import (
    CritsetsError,
    Graph6Error,
    InternalError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedError,
)
from .formulas import (
    bipartite_params,
    cycle_params,
    proof_coloring_cycle,
    uniquely_colorable_params,
)
from .graphs import (
    Graph,
    add_pendant_to_each,
    atlas_graphs,
    canonical_form,
    cartesian_product,
    complement,
    disjoint_union,
    edge_union,
    emit_graph6,
    enumerate_graphs,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    parse_graph6,
    strong_product,
)
from .reductions import (
    ReductionInstance,
    ReductionReport,
    proof_coloring_olcs,
    proof_coloring_ulcs,
    reduce_olcs,
    reduce_ulcs,
    verify_reduction_small,
)
from .sudoku import (
    MncResult,
    SudokuStructure,
    TrialStats,
    certify_fair_puzzle,
    mnc_exhaustive,
    random_determining_set,
    sudoku_graph,
    trial_campaign,
)

__version__ = "0.1.0"
