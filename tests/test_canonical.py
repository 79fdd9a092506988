"""Canonical labeling and isomorphism testing against brute force."""

from itertools import permutations

from hypothesis import given

from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.bitsets import mask_of
from turan_matroids.canonical import are_isomorphic, canonical_bases, dedupe_isomorphic
from turan_matroids.geometry import projective_geometry, two_disjoint_lines, uniform

from conftest import linear_matroids


def brute_force_canonical(n, bases):
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(
            sorted(mask_of(perm[e] for e in range(n) if b >> e & 1) for b in bases)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


@given(linear_matroids(min_n=2, max_n=5))
def test_canonical_matches_brute_force(M):
    assert canonical_bases(M.n, M.bases) == brute_force_canonical(M.n, M.bases)


def test_canonical_matches_brute_force_structured():
    for M in (uniform(2, 4), uniform(3, 5), two_disjoint_lines(3, 3)):
        assert canonical_bases(M.n, M.bases) == brute_force_canonical(M.n, M.bases)


def test_canonical_invariant_under_relabeling(rng):
    for _ in range(30):
        M = random_linear_matroid(rng, min_n=3, max_n=7)
        perm = list(range(M.n))
        rng.shuffle(perm)
        relabeled = [mask_of(perm[e] for e in range(M.n) if b >> e & 1) for b in M.bases]
        assert canonical_bases(M.n, M.bases) == canonical_bases(M.n, relabeled)


def test_canonical_fano_is_relabeling_of_input():
    pg = projective_geometry(3, 2)
    key = canonical_bases(pg.n, pg.bases)
    assert len(key) == 28
    assert are_isomorphic(7, pg.bases, key)


def test_are_isomorphic_detects_relabelings(rng):
    for _ in range(30):
        M = random_linear_matroid(rng, min_n=3, max_n=7)
        perm = list(range(M.n))
        rng.shuffle(perm)
        relabeled = [mask_of(perm[e] for e in range(M.n) if b >> e & 1) for b in M.bases]
        assert are_isomorphic(M.n, M.bases, relabeled)


def test_are_isomorphic_rejects_different_matroids():
    assert not are_isomorphic(4, uniform(2, 4).bases, two_disjoint_lines(2, 2).bases)
    # same ground set and same basis count: two disjoint 3-lines vs two
    # 3-lines meeting in a point plus a free point (both have 18 bases)
    from turan_matroids.geometry import rank3_from_lines

    disjoint = two_disjoint_lines(3, 3)
    crossing = rank3_from_lines(6, [0b000111, 0b011100])
    assert disjoint.basis_count == crossing.basis_count == 18
    assert not are_isomorphic(6, disjoint.bases, crossing.bases)
    assert canonical_bases(6, disjoint.bases) != canonical_bases(6, crossing.bases)


def test_dedupe_isomorphic_collapses_copies(rng):
    M = uniform(2, 4)
    fams = []
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        fams.append(tuple(mask_of(perm[e] for e in range(4) if b >> e & 1) for b in M.bases))
    fams.append(tuple(two_disjoint_lines(2, 2).bases))
    keys = dedupe_isomorphic(4, fams)
    assert len(keys) == 2  # U(2,4) copies collapse; the rank-3 family stays
