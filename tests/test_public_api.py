import types

import mainspectra

# The package's public names, submodules and __version__ aside.  To export a
# new name, add it here and to the README's "Public API" paragraph.
PUBLIC_NAMES = [
    "AuditReport",
    "BoundaryCertificate",
    "BoundaryPairError",
    "CensusRow",
    "CensusTable",
    "ClassificationError",
    "Convention",
    "Graph",
    "Graph6Error",
    "MainSpectrumReport",
    "RealizationError",
    "SeidelReport",
    "SpliceError",
    "TwoWalkParams",
    "analyze",
    "boundary_impossibility",
    "bundled_reference_rows",
    "census_table",
    "char_poly",
    "char_polys",
    "compare_to_reference",
    "cone",
    "cone_over_regular",
    "cycle",
    "degree_vector",
    "distinct_root_count",
    "equitable_biregular_from",
    "equitable_records",
    "graph_from_adjacency_text",
    "graph_from_edges",
    "induced_subgraph",
    "is_connected",
    "is_equitable",
    "main_spectrum_reports",
    "parse_graph6",
    "seidel_matrix",
    "seidel_report",
    "seidel_reports",
    "sp_component",
    "splice",
    "splice_chain",
    "srg_params",
    "star",
    "symplectic_graph",
    "t_lambda_tree",
    "three_valenced_boundary",
    "two_walk_params",
    "valency_partition",
    "verify_switching_invariance_exhaustive",
    "vertex_cap",
    "write_graph6",
]


def test_public_names_are_the_pinned_list():
    names = sorted(
        name
        for name, value in vars(mainspectra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
