"""Exact toolkit for basis maximization in matroids with forbidden uniform minors.

Core objects: bitmask-backed Matroid values, uniform hypergraphs and daisy
search, finite-geometry constructions, exact rational bound evaluators, a
simplex optimizer for basis polynomials, and exhaustive extremal searches
with verified certificates.
"""

from .matroid import (
    Matroid,
    MatroidError,
    TheoremViolation,
    closure,
    connected_components,
    contract,
    delete,
    direct_sum,
    flats,
    is_simple,
    parallel_blowup,
    rank_of,
    restrict,
    simplify,
    truncate,
    validate_exchange,
)
from .geometry import (
    bose_burton,
    lines_of,
    projective_geometry,
    rank3_from_lines,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from .fields import GaloisField, make_field
from .hypergraphs import (
    UniformHypergraph,
    basis_hypergraph,
    complete_uniform,
    daisy,
    has_daisy,
    suspension,
)
from .minors import (
    MinorWitness,
    count_matroids,
    has_uniform_minor,
    has_uniform_restriction,
    uniform_minor_oracle,
)
from .lagrangian import LagrangianResult, maximize, poly_eval, poly_gradient, u2_lagrangian_bound
from .extremal import (
    SearchOptions,
    SearchReport,
    best_known_construction,
    exhaustive_oracle_max_bases,
    search_binary_max_bases,
    search_ex,
    search_ex_rank3,
    truncation_probe,
)
from .rank3 import (
    NoU25Minor,
    Rank3Decomposition,
    TwoLines,
    classify_u35_free,
    decompose_rank3,
    line_cover_number,
)
from .formats import ParseError, parse_matroid, parse_matroid_file, serialize_matroid

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
