"""gallaikit: search and verification for colorings that avoid monochromatic and rainbow patterns.

The package covers finite grids (rectangle avoidance), complete graphs
(rainbow triangles versus monochromatic C4/P4, with exact small
Gallai-Ramsey numbers), DIMACS export of grid instances, and the
Euclidean constructions that transfer those finite statements to
colorings of high-dimensional space.
"""

__version__ = "0.1.0"

from .grid import (
    BipartiteEdgeColoring,
    CertificateError,
    GridColoring,
    GridRectangle,
    VerificationReport,
    find_mono_rectangle,
    find_rainbow_rectangle,
    format_grid_certificate,
    from_bipartite_edge_coloring,
    parse_grid_certificate,
    to_bipartite_edge_coloring,
    verify_good,
)
from .search import (
    Outcome,
    SearchCertificate,
    SearchOptions,
    SearchOutcome,
    format_search_certificate,
    minimal_forcing_m,
    parse_search_certificate,
    search_good_coloring,
)
from .sat import (
    CnfDocument,
    check_model_against_cnf,
    color_var,
    decode_model,
    encode_grid_cnf,
    format_dimacs,
    parse_dimacs,
    parse_model_text,
    selector_var,
)
from .graphs import (
    EdgeColoring,
    SubgraphWitness,
    WitnessKind,
    find_mono_subgraph,
    find_rainbow_triangle,
    format_edge_coloring,
    gallai_ramsey_number,
    parse_edge_coloring,
    search_good_edge_coloring,
)
from .euclid import (
    ColoringOracle,
    Configuration,
    FalsificationReport,
    GadgetReport,
    GADGET_SIDES,
    LabeledPoint,
    LatticeEmbedding,
    PairEmbedding,
    SegmentResult,
    affine_rank,
    congruent,
    distance,
    falsify_strip,
    format_configuration,
    grid_lattice_embedding,
    halfplane_oracle,
    parse_configuration,
    planar_rectangle,
    rainbow_segment,
    regular_simplex,
    simplex_midpoint_embedding,
    strip_color,
    strip_oracle,
    triangle_gadget,
    verify_triangle_gadget,
)

__all__ = [name for name in dir() if not name.startswith("_")]
