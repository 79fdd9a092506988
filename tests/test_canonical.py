"""Canonical labeling and isomorphism testing against brute force."""

import random
from itertools import combinations, permutations
from math import factorial, prod

import pytest
from hypothesis import given

from turan_matroids.acceptance import random_linear_matroid
from turan_matroids import canonical
from turan_matroids.bitsets import mask_of
from turan_matroids.canonical import (
    _automorphisms_mod_twins,
    _twin_classes,
    are_isomorphic,
    canonical_bases,
    dedupe_isomorphic,
)
from turan_matroids.extremal import search_binary_max_bases, search_ex_rank3
from turan_matroids.geometry import (
    projective_geometry,
    rank3_from_lines,
    two_disjoint_lines,
    uniform,
)
from turan_matroids.matroid import direct_sum, parallel_blowup

from conftest import linear_matroids, oracle_matroids
from oracles import are_isomorphic_oracle, automorphism_count_oracle, canonical_bases_oracle


def relabeled(n, bases, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [mask_of(perm[e] for e in range(n) if b >> e & 1) for b in bases]


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
        assert canonical_bases(M.n, M.bases) == canonical_bases(M.n, relabeled(M.n, M.bases, rng))


def test_canonical_rejects_non_uniform_family():
    # {0}, {0, 1}: swapping 0 and 1 preserves independence but not the family
    with pytest.raises(ValueError, match="uniform"):
        canonical_bases(2, [0b01, 0b11])


def test_canonical_fano_is_relabeling_of_input():
    pg = projective_geometry(3, 2)
    key = canonical_bases(pg.n, pg.bases)
    assert len(key) == 28
    assert are_isomorphic(7, pg.bases, key)


def test_are_isomorphic_detects_relabelings(rng):
    for _ in range(30):
        M = random_linear_matroid(rng, min_n=3, max_n=7)
        assert are_isomorphic(M.n, M.bases, relabeled(M.n, M.bases, rng))


def test_are_isomorphic_rejects_different_matroids():
    assert not are_isomorphic(4, uniform(2, 4).bases, two_disjoint_lines(2, 2).bases)
    # same ground set and same basis count: two disjoint 3-lines vs two
    # 3-lines meeting in a point plus a free point (both have 18 bases)
    disjoint = two_disjoint_lines(3, 3)
    crossing = rank3_from_lines(6, [0b000111, 0b011100])
    assert disjoint.basis_count == crossing.basis_count == 18
    assert not are_isomorphic(6, disjoint.bases, crossing.bases)
    assert canonical_bases(6, disjoint.bases) != canonical_bases(6, crossing.bases)


def degree_sequence(n, family):
    return sorted(sum(b >> e & 1 for b in family) for e in range(n))


def swapped(family, rng, times):
    """``family`` after up to ``times`` random swaps B1 - x + y, B2 - y + x,
    which keep every member's size and every element's degree."""
    family = set(family)
    for _ in range(times):
        b1, b2 = rng.sample(sorted(family), 2)
        x = 1 << rng.choice([e for e in range(b1.bit_length()) if (b1 & ~b2) >> e & 1])
        y = 1 << rng.choice([e for e in range(b2.bit_length()) if (b2 & ~b1) >> e & 1])
        if b1 ^ x ^ y not in family and b2 ^ x ^ y not in family:
            family -= {b1, b2}
            family |= {b1 ^ x ^ y, b2 ^ x ^ y}
    return sorted(family)


def test_are_isomorphic_matches_oracle():
    rng = random.Random(31415)
    matroids = [M for M in oracle_matroids() if M.n < 15]  # the oracle needs ~11 s on PG(4,2)
    for M in matroids:
        other = relabeled(M.n, M.bases, rng)
        assert are_isomorphic(M.n, M.bases, other) and are_isomorphic_oracle(M.n, M.bases, other)
    for A, B in combinations(matroids, 2):
        if A.n == B.n and degree_sequence(A.n, A.bases) == degree_sequence(B.n, B.bases):
            assert are_isomorphic(A.n, A.bases, B.bases) == are_isomorphic_oracle(
                A.n, A.bases, B.bases
            )
    pg = projective_geometry(4, 2)
    assert are_isomorphic(pg.n, pg.bases, relabeled(pg.n, pg.bases, rng))

    # uniform families with equal degree sequences, matroids or not
    answers = set()
    for _ in range(300):
        n = rng.randint(4, 7)
        r = rng.randint(2, min(3, n - 2))
        all_r = [mask_of(c) for c in combinations(range(n), r)]
        fam = rng.sample(all_r, rng.randint(2, len(all_r) - 1))
        other = relabeled(n, swapped(fam, rng, rng.randint(0, 3)), rng)
        assert degree_sequence(n, fam) == degree_sequence(n, other)
        answer = are_isomorphic(n, fam, other)
        assert answer == are_isomorphic_oracle(n, fam, other)
        answers.add(answer)
    assert answers == {False, True}

    disjoint = two_disjoint_lines(3, 3)
    crossing = rank3_from_lines(6, [0b000111, 0b011100])
    assert not are_isomorphic(6, disjoint.bases, crossing.bases)
    assert not are_isomorphic_oracle(6, disjoint.bases, crossing.bases)


def test_canonical_matches_oracle():
    rng = random.Random(16180)

    def agree(n, family):
        assert canonical_bases(n, family) == canonical_bases_oracle(n, family), (n, family)

    # the oracle needs about 100 s on the 32 entries with n = 9
    for M in oracle_matroids():
        if M.n <= 8:
            agree(M.n, M.bases)
        if M.n <= 7:
            agree(M.n, relabeled(M.n, M.bases, rng))

    # uniform families with equal degree sequences, matroids or not
    for _ in range(60):
        n = rng.randint(4, 7)
        r = rng.randint(2, min(3, n - 2))
        all_r = [mask_of(c) for c in combinations(range(n), r)]
        fam = rng.sample(all_r, rng.randint(2, len(all_r) - 1))
        agree(n, fam)
        agree(n, relabeled(n, swapped(fam, rng, rng.randint(0, 3)), rng))

    # parallel copies of one point are twins
    blowups = (
        (uniform(2, 3), [2, 2, 3]),
        (uniform(2, 4), [1, 1, 3, 3]),
        (uniform(3, 4), [1, 2, 2, 3]),
        (rank3_from_lines(5, [0b00111]), [2, 1, 2, 1, 1]),
        (rank3_from_lines(6, [0b000111, 0b011100]), [1, 1, 2, 1, 1, 2]),
        (two_disjoint_lines(2, 3), [1, 2, 1, 1, 2]),
        (projective_geometry(3, 2), [2, 1, 1, 1, 1, 1, 1]),
    )
    for M, mult in blowups:
        B = parallel_blowup(M, mult)
        agree(B.n, B.bases)
        if B.n <= 7:
            agree(B.n, relabeled(B.n, B.bases, rng))


def automorphism_count(n, bases):
    """|T| |R|: the twin group's order times the number of automorphisms
    canonical_bases enumerates, one per coset of the twin group."""
    twin_of = _twin_classes(n, bases)
    twins = prod(factorial(twin_of.count(c)) for c in set(twin_of))
    return twins * len(_automorphisms_mod_twins(n, bases, twin_of))


def test_automorphisms_mod_twins_match_oracle():
    families = {
        "Fano": (projective_geometry(3, 2), 168),
        "U(3,6)": (uniform(3, 6), 720),
        "search_ex_rank3(7,3,5)": (search_ex_rank3(7, 3, 5).witnesses[0], 12),
        "U(1,2)+U(2,5)": (direct_sum(uniform(1, 2), uniform(2, 5)), 240),
        "binary r=4 size 8": (search_binary_max_bases(4, 8).witnesses[0], 1344),
    }
    for name, (M, order) in families.items():
        assert automorphism_count(M.n, M.bases) == order, name
        assert automorphism_count_oracle(M.n, M.bases) == order, name

    # random linear matroids, and symmetric random families
    rng = random.Random(2718)
    for i in range(40):
        if i % 2:
            M = random_linear_matroid(rng, min_n=3, max_n=7)
            n, fam = M.n, M.bases
        else:
            n, fam = symmetric_family(rng)
        assert automorphism_count(n, fam) == automorphism_count_oracle(n, fam), (n, fam)


def symmetric_family(rng):
    """Two random r-subsets of [n], 5 <= n <= 7, closed under a random
    permutation: most such families have automorphisms beyond twins."""
    n = rng.randint(5, 7)
    r = rng.randint(2, n - 2)
    all_r = [mask_of(c) for c in combinations(range(n), r)]
    fam = set(rng.sample(all_r, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    while True:
        images = {mask_of(perm[e] for e in range(n) if b >> e & 1) for b in fam}
        if images <= fam:
            return n, sorted(fam)
        fam |= images


def test_canonical_matches_oracle_on_symmetric_families():
    rng = random.Random(5772)
    for _ in range(40):
        n, fam = symmetric_family(rng)
        assert canonical_bases(n, fam) == canonical_bases_oracle(n, fam), (n, fam)
        other = relabeled(n, fam, rng)
        assert canonical_bases(n, other) == canonical_bases_oracle(n, fam), (n, fam)


def test_canonical_uniform_is_immediate():
    # every pair of elements of U(r, n) is a twin pair, so each level has one
    # child; the search without symmetry pruning takes minutes on U(5, 10)
    for r, n in ((4, 8), (5, 10), (3, 9)):
        bases = uniform(r, n).bases
        assert canonical_bases(n, bases) == tuple(sorted(bases))


def test_uniform_automorphisms_skip_the_backtracking(monkeypatch):
    # on U(r, n) one twin class holds every element, so R is the identity
    # and no independent-set table is built
    def unexpected(family):
        raise AssertionError("independent sets built for a uniform matroid")

    monkeypatch.setattr(canonical, "_independent_sets", unexpected)
    for r, n in ((4, 8), (5, 10), (3, 9)):
        bases = uniform(r, n).bases
        assert _automorphisms_mod_twins(n, bases, _twin_classes(n, bases)) == [tuple(range(n))]
        assert canonical_bases(n, bases) == tuple(sorted(bases))


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
