"""Exact-arithmetic toolkit for graphs with exactly two main eigenvalues."""

from .census import (
    AuditReport,
    CensusRow,
    CensusTable,
    ClassificationError,
    Convention,
    bundled_reference_rows,
    census_table,
    compare_to_reference,
    verify_switching_invariance_exhaustive,
)
from .constructions import (
    BoundaryCertificate,
    BoundaryPairError,
    RealizationError,
    SpliceError,
    boundary_impossibility,
    cone_over_regular,
    equitable_biregular_from,
    sp_component,
    splice,
    splice_chain,
    symplectic_graph,
    three_valenced_boundary,
)
from .equitable import (
    equitable_records,
    is_equitable,
    valency_partition,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    Graph,
    cone,
    cycle,
    degree_vector,
    graph_from_adjacency_text,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    star,
    t_lambda_tree,
    vertex_cap,
)
from .linalg import (
    char_poly,
    char_polys,
    distinct_root_count,
)
from .seidel import (
    SeidelReport,
    seidel_matrix,
    seidel_report,
    seidel_reports,
    srg_params,
)
from .spectrum import (
    MainSpectrumReport,
    TwoWalkParams,
    analyze,
    main_spectrum_reports,
    two_walk_params,
)

__version__ = "0.1.0"
