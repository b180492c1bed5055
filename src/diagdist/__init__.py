"""Exact diagonal distance and code distance of multigraph codes over Z/pZ.

The library has four layers:

* ``gfp``      -- dense exact linear algebra over Z/pZ (rref, kernel, solve);
* ``graphs``   -- the multigraph model, file formats and generators;
* ``distance`` -- the kernel-enumeration search for diagonal, pairwise and
                  code distance (the production path);
* ``oracle``   -- a deliberately literal brute force over operator words,
                  used to cross-check the search on small instances.

The ``diagdist`` console script exposes all of it on the command line.
"""

from .distance import (
    CodeDistanceResult,
    DistanceReport,
    SearchTooLarge,
    SymplecticVector,
    build_lambda,
    chi_weight,
    code_distance,
    diagonal_distance,
    kernel_point,
    pairwise_distance,
)
from .gfp import PrimeField, is_prime, kernel_basis, rref, solve
from .graphs import (
    Multigraph,
    ParseError,
    adjacency_matrix,
    generate,
    isolated_vertices,
    parse_codewords,
    parse_graph,
    serialize,
    vanishing_edges,
)
from .oracle import (
    OperatorWord,
    apply_word,
    apply_x,
    apply_z,
    brute_force_distance,
    brute_force_pairwise,
    eta_sum,
)

__version__ = "0.1.0"

__all__ = [
    "CodeDistanceResult",
    "DistanceReport",
    "Multigraph",
    "OperatorWord",
    "ParseError",
    "PrimeField",
    "SearchTooLarge",
    "SymplecticVector",
    "adjacency_matrix",
    "apply_word",
    "apply_x",
    "apply_z",
    "brute_force_distance",
    "brute_force_pairwise",
    "build_lambda",
    "chi_weight",
    "code_distance",
    "diagonal_distance",
    "eta_sum",
    "generate",
    "is_prime",
    "isolated_vertices",
    "kernel_basis",
    "kernel_point",
    "pairwise_distance",
    "parse_codewords",
    "parse_graph",
    "rref",
    "serialize",
    "solve",
    "vanishing_edges",
]
