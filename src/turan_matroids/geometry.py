"""Explicit matroid constructions: projective geometries over GF(q),
Bose-Burton style flat complements, uniform matroids, and the rank-3
line arrangements used as extremal candidates.

Projective points are normalized so the first nonzero coordinate is 1 and
are listed in lexicographic coordinate order, which fixes element labels
for bit-exact serialization.
"""

from __future__ import annotations

from itertools import combinations, product

from .bitsets import mask_of
from .fields import GaloisField, make_field
from .matroid import MAX_GROUND_SET, Matroid, MatroidError, flats


def projective_points(r: int, q: int):
    """Normalized points of the rank-r projective geometry over GF(q)."""
    if r < 1:
        raise MatroidError("projective geometry needs rank >= 1")
    F = make_field(q)
    seen = set()
    for vec in product(range(q), repeat=r):
        if not any(vec):
            continue
        lead = next(c for c in vec if c)
        scale = F.inv(lead)
        seen.add(tuple(F.mul(scale, c) for c in vec))
    return sorted(seen)


def _reduce_against(vec, echelon, F: GaloisField):
    """Eliminate ``vec`` against echelon rows (pivot index, row)."""
    v = list(vec)
    for pivot, row in echelon:
        c = v[pivot]
        if c:
            for i in range(len(v)):
                v[i] = F.sub(v[i], F.mul(c, row[i]))
    return v


def _normalize_pivot(v, F: GaloisField):
    pivot = next((i for i, c in enumerate(v) if c), None)
    if pivot is None:
        return None, v
    scale = F.inv(v[pivot])
    return pivot, [F.mul(scale, c) for c in v]


def vector_rank(vectors, F: GaloisField) -> int:
    echelon = []
    for vec in vectors:
        reduced = _reduce_against(vec, echelon, F)
        pivot, row = _normalize_pivot(reduced, F)
        if pivot is not None:
            echelon.append((pivot, row))
    return len(echelon)


def matroid_from_vectors(vectors, q: int) -> Matroid:
    """Linear matroid of a list of GF(q) vectors (columns)."""
    F = make_field(q)
    n = len(vectors)
    if n > MAX_GROUND_SET:
        raise MatroidError("more than 64 vectors")
    r = vector_rank(vectors, F)
    if r == 0:
        return Matroid.from_bases(n, [0], validate=False)
    bases = []

    def grow(start, echelon, chosen):
        if len(chosen) == r:
            bases.append(mask_of(chosen))
            return
        for i in range(start, n):
            reduced = _reduce_against(vectors[i], echelon, F)
            pivot, row = _normalize_pivot(reduced, F)
            if pivot is not None:
                grow(i + 1, echelon + [(pivot, row)], chosen + [i])

    grow(0, [], [])
    return Matroid.from_bases(n, bases, validate=False)


def projective_geometry(r: int, q: int) -> Matroid:
    """Rank-r projective geometry; elements follow projective_points order."""
    points = projective_points(r, q)
    if len(points) > MAX_GROUND_SET:
        raise MatroidError(f"projective geometry with {len(points)} points exceeds the cap")
    return matroid_from_vectors(points, q)


def bose_burton_points(r: int, q: int, c: int):
    """Points of the rank-r geometry outside the standard rank-(r-c) flat.

    The removed flat is the span of the last r-c coordinates, i.e. the
    points whose first c coordinates vanish.
    """
    if not 1 <= c <= r - 1:
        raise MatroidError("need 1 <= c <= r-1")
    return [pt for pt in projective_points(r, q) if any(pt[:c])]


def bose_burton(r: int, q: int, c: int) -> Matroid:
    points = bose_burton_points(r, q, c)
    if len(points) > MAX_GROUND_SET:
        raise MatroidError(f"construction with {len(points)} points exceeds the cap")
    M = matroid_from_vectors(points, q)
    if M.r != r:
        raise MatroidError("flat complement lost rank; invalid parameters")
    return M


def uniform(s: int, t: int) -> Matroid:
    if not 0 <= s <= t <= MAX_GROUND_SET:
        raise MatroidError("need 0 <= s <= t <= 64")
    bases = [mask_of(c) for c in combinations(range(t), s)]
    return Matroid.from_bases(t, bases, validate=False)


def rank3_multiline(line_sizes, parallel_class: int = 0, simple_lines: bool = True) -> Matroid:
    """Rank-3 matroid whose ground set is a disjoint union of lines plus an
    optional parallel class P.

    The listed blocks are pairwise-disjoint lines with simple restrictions;
    bases are exactly the 3-sets with at most two elements on any line and
    at most one element in P.  With simple_lines=True every block must have
    >= 3 elements (a genuine long line); with simple_lines=False 2-element
    blocks are allowed and impose no collinearity.
    """
    sizes = list(line_sizes)
    if any(s < 2 for s in sizes):
        raise MatroidError("line blocks need at least 2 elements")
    if simple_lines and any(s < 3 for s in sizes):
        raise MatroidError("long lines need at least 3 elements")
    if parallel_class < 0:
        raise MatroidError("parallel class size must be >= 0")
    n = sum(sizes) + parallel_class
    if n > MAX_GROUND_SET:
        raise MatroidError("construction exceeds the 64-element cap")
    block = []
    for idx, s in enumerate(sizes):
        block.extend([idx] * s)
    block.extend([-1] * parallel_class)  # -1 marks the parallel class
    bases = []
    for a, b, c in combinations(range(n), 3):
        blocks = [block[a], block[b], block[c]]
        in_p = blocks.count(-1)
        if in_p >= 2:
            continue
        line_blocks = [x for x in blocks if x != -1]
        if line_blocks and len(line_blocks) == 3 and len(set(line_blocks)) == 1:
            continue
        bases.append(mask_of((a, b, c)))
    if not bases:
        raise MatroidError("blocks cannot realize a rank-3 matroid")
    return Matroid.from_bases(n, bases, validate=False)


def two_disjoint_lines(a: int, b: int) -> Matroid:
    """Rank-3 matroid that is the union of two disjoint lines of a and b points."""
    if a < 2 or b < 2:
        raise MatroidError("lines need at least 2 points")
    return rank3_multiline([a, b], 0, simple_lines=False)


def rank3_from_lines(p: int, lines) -> Matroid:
    """Simple rank-3 matroid on p points with the given long lines.

    ``lines`` are masks with >= 3 points, pairwise sharing at most one
    point.  Bases are the triples not contained in any line.  Any such
    family is realizable as the long lines of a simple rank-3 matroid.
    """
    lines = sorted(set(lines))
    if p < 3:
        raise MatroidError("rank 3 needs at least 3 points")
    full = (1 << p) - 1
    for ln in lines:
        if ln & ~full or ln.bit_count() < 3:
            raise MatroidError("every long line needs >= 3 points inside the ground set")
    for l1, l2 in combinations(lines, 2):
        if (l1 & l2).bit_count() > 1:
            raise MatroidError("two lines share more than one point")
    bases = []
    for combo in combinations(range(p), 3):
        x = mask_of(combo)
        if not any(x & ln == x for ln in lines):
            bases.append(x)
    if not bases:
        raise MatroidError("every triple is collinear; rank is below 3")
    return Matroid.from_bases(p, bases, validate=False)


def lines_of(M: Matroid):
    """All maximal rank-2 subsets, as masks, sorted.

    Requires rank >= 2.  Every line is the closure of an independent pair
    and contains all loops of M.
    """
    if M.r < 2:
        raise MatroidError("lines need rank >= 2")
    return flats(M, 2)
