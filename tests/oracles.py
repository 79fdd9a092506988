"""Slow reference implementations that only the tests use.

Each one is the direct, unpruned form of a fast path in the package, kept
so that the fast path can be checked against it.
"""

from itertools import combinations

import numpy as np

from turan_matroids.bitsets import bit_indices, mask_of, popcount
from turan_matroids.geometry import lines_of, rank3_from_lines, rank3_multiline
from turan_matroids.matroid import Matroid, MatroidError, parallel_blowup, validate_exchange


def exchange_violation_oracle(n: int, family):
    """First witness that ``family`` is not a basis family, or None.

    Returns ("size", B1, B2) on a cardinality mismatch, ("range", B, None)
    for a member not inside {0..n-1}, and ("exchange", B1, B2, x) when no
    y in B2-B1 repairs the removal of x from B1.  Scan order is fixed
    (sorted masks) so the reported witness is deterministic.
    """
    members = sorted(set(family))
    if not members:
        raise MatroidError("basis family must be nonempty")
    full = (1 << n) - 1 if n else 0
    r = popcount(members[0])
    for b in members:
        if b & ~full:
            return ("range", b, None)
        if popcount(b) != r:
            return ("size", members[0], b)
    family_set = set(members)
    for b1 in members:
        for b2 in members:
            if b1 == b2:
                continue
            for x in bit_indices(b1 & ~b2):
                removed = b1 & ~(1 << x)
                if not any(removed | (1 << y) in family_set for y in bit_indices(b2 & ~b1)):
                    return ("exchange", b1, b2, x)
    return None


def grid_search_2simplex(M: Matroid, resolution: int = 1000) -> float:
    """Reference maximizer for 3-element matroids: scan the lattice grid
    {(i, j, res-i-j)/res} on the simplex and return the best value found."""
    if M.n != 3:
        raise MatroidError("grid oracle is for 3-element ground sets")
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    valid = i + j <= resolution
    coords = [
        i[valid] / resolution,
        j[valid] / resolution,
        (resolution - i - j)[valid] / resolution,
    ]
    total = np.zeros(coords[0].shape)
    for b in M.bases:
        prod = np.ones(coords[0].shape)
        for e in bit_indices(b):
            prod = prod * coords[e]
        total += prod
    return float(total.max())


def line_cover_oracle(M: Matroid) -> int:
    """Unpruned reference: try all line subsets by increasing size."""
    lines = lines_of(M)
    full = M.full_mask
    for k in range(1, len(lines) + 1):
        for combo in combinations(lines, k):
            u = 0
            for ln in combo:
                u |= ln
            if u == full:
                return k
    raise MatroidError("lines do not cover the ground set")


def multiline_with_blowup(line_sizes, parallel_class: int) -> Matroid:
    """Same matroid as rank3_multiline, built as a one-point blow-up.

    Used as an independent cross-check of the direct enumeration: the
    parallel class is realized by blowing up a single extra point.
    """
    sizes = list(line_sizes)
    if parallel_class == 0:
        return rank3_multiline(sizes, 0, simple_lines=False)
    p = sum(sizes) + 1
    lines = []
    offset = 0
    for s in sizes:
        if s >= 3:
            lines.append(mask_of(range(offset, offset + s)))
        offset += s
    simple = rank3_from_lines(p, lines)
    return parallel_blowup(simple, [1] * (p - 1) + [parallel_class])


def matroidal_local_diagnostic(H) -> bool:
    """Check matroidality through induced subgraphs on at most 2k vertices.

    Edgeless induced subgraphs are vacuously fine; they arise from every
    hypergraph and forbid nothing.  Intended for small v only.
    """
    if not H.edges:
        raise MatroidError("empty edge set")
    limit = min(H.v, 2 * H.k)
    for size in range(H.k, limit + 1):
        for combo in combinations(range(H.v), size):
            w = mask_of(combo)
            inside = [e for e in H.edges if e & w == e]
            if inside and not validate_exchange(H.v, inside):
                return False
    return True
