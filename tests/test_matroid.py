"""Core matroid operations against hand-checked and enumerated values."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given

from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.bitsets import bit_indices, mask_of
from turan_matroids.matroid import (
    Matroid,
    MatroidError,
    closure,
    connected_components,
    contract,
    delete,
    direct_sum,
    exchange_violation,
    flats,
    is_coloop,
    is_simple,
    loops_mask,
    parallel_blowup,
    rank_of,
    restrict,
    simplify,
    truncate,
    validate_exchange,
)
from turan_matroids.geometry import projective_geometry, projective_points, two_disjoint_lines, uniform

from conftest import linear_matroids, oracle_matroids
from oracles import (
    circuits,
    closure_oracle,
    connected_components_oracle,
    exchange_violation_oracle,
    exchange_witness_refutes,
    flats_oracle,
    restrict_oracle,
    simplify_oracle,
)


def test_exchange_accepts_triangle():
    assert validate_exchange(3, [0b011, 0b101, 0b110])


def test_exchange_rejects_two_disjoint_edges():
    assert not validate_exchange(4, [0b0011, 0b1100])


def test_exchange_single_basis_vacuous():
    assert validate_exchange(5, [0b00111])


def test_exchange_rejects_mixed_sizes():
    assert not validate_exchange(4, [0b0011, 0b0111])


def _perturbations(rng, M):
    """M's basis family with one basis removed and with one non-basis added."""
    bases = list(M.bases)
    if len(bases) > 1:
        dropped = rng.choice(bases)
        yield [b for b in bases if b != dropped]
    others = [mask_of(c) for c in combinations(range(M.n), M.r) if mask_of(c) not in M.bases]
    if others:
        yield bases + [rng.choice(others)]


def test_exchange_violation_matches_pair_scan(rng):
    families = []
    for n, r in ((4, 2), (5, 2), (5, 3)):
        subsets = [mask_of(c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(subsets)):
            families.append((n, [s for i, s in enumerate(subsets) if pick >> i & 1]))
    for _ in range(200):
        M = random_linear_matroid(rng, max_n=8)
        families += [(M.n, fam) for fam in _perturbations(rng, M)]
    for M in (projective_geometry(3, 3), projective_geometry(4, 2)):
        families.append((M.n, M.bases[:17] + M.bases[18:]))
    for n, fam in families:
        assert exchange_violation(n, fam) == exchange_violation_oracle(n, fam)
    witnesses = [exchange_violation(n, fam) for n, fam in families]
    assert None in witnesses and any(w and w[0] == "exchange" for w in witnesses)


def test_exchange_witness_refutes_only_non_bases(rng):
    # every witness found is applied to every family of the same (n, r):
    # "refutes" must never fall on a basis family, and must fall on the
    # family that produced the witness
    groups = {}
    for n, r in ((4, 2), (5, 2), (5, 3)):
        subsets = [mask_of(c) for c in combinations(range(n), r)]
        groups[n, r] = [
            [s for i, s in enumerate(subsets) if pick >> i & 1] for pick in range(1, 1 << len(subsets))
        ]
    for _ in range(200):
        M = random_linear_matroid(rng, max_n=8)
        groups.setdefault((M.n, M.r), []).extend([list(M.bases), *_perturbations(rng, M)])
    refuted = 0
    for (n, _), fams in groups.items():
        valid = [validate_exchange(n, fam) for fam in fams]
        sets = [set(fam) for fam in fams]
        witnesses = set()
        for fam, members in zip(fams, sets):
            w = exchange_violation(n, fam)
            if w is not None:
                assert exchange_witness_refutes(members, w)
                witnesses.add(w)
        for w in witnesses:
            for ok, members in zip(valid, sets):
                if exchange_witness_refutes(members, w):
                    assert not ok, (n, w, sorted(members))
                    refuted += 1
    assert refuted > 5_000  # 7,907 (family, witness) pairs with this seed


def test_exchange_witness_refutes_checks_its_witness():
    triangle = {0b011, 0b101, 0b110}
    with pytest.raises(MatroidError):
        exchange_witness_refutes(triangle, ("size", 0b011, 0b111))
    with pytest.raises(MatroidError):
        exchange_witness_refutes(triangle, ("exchange", 0b0011, 0b1100, 2))  # x not in B1
    with pytest.raises(MatroidError):
        exchange_witness_refutes(triangle, ("exchange", 0b011, 0b101, 0))  # x in B2
    w = exchange_violation(4, [0b0011, 0b1100])
    assert w == ("exchange", 0b0011, 0b1100, 0)
    assert exchange_witness_refutes({0b0011, 0b1100}, w)
    assert not exchange_witness_refutes({0b0011}, w)  # B2 absent
    assert not exchange_witness_refutes({0b1100}, w)  # B1 absent
    assert not exchange_witness_refutes({0b0011, 0b1100, 0b0110}, w)  # y = 2 repairs


def test_from_bases_validates():
    with pytest.raises(MatroidError):
        Matroid.from_bases(4, [0b0011, 0b1100])
    with pytest.raises(MatroidError):
        Matroid.from_bases(3, [])


def test_rank_of_uniform():
    M = uniform(2, 3)
    assert rank_of(M, 0b111) == 2
    assert rank_of(M, 0) == 0


def test_rank_of_fano_line():
    pg = projective_geometry(3, 2)
    line = closure(pg, 0b11)
    assert line.bit_count() == 3
    assert rank_of(pg, line) == 2


def test_closure_singleton_in_simple_matroid():
    M = uniform(2, 4)
    assert closure(M, 0b1) == 0b1


def test_closure_fano_matches_gf2_span():
    pg = projective_geometry(3, 2)
    pts = projective_points(3, 2)
    index = {p: i for i, p in enumerate(pts)}
    for a, b in combinations(range(7), 2):
        span = tuple((x + y) % 2 for x, y in zip(pts[a], pts[b]))
        expected = (1 << a) | (1 << b) | (1 << index[span])
        assert closure(pg, (1 << a) | (1 << b)) == expected


@given(linear_matroids())
def test_closure_idempotent(M):
    x = (1 << min(2, M.n)) - 1
    assert closure(M, closure(M, x)) == closure(M, x)


def test_delete_uniform():
    assert delete(uniform(2, 4), 3).bases == uniform(2, 3).bases


def test_delete_coloop_routes_to_contraction():
    assert delete(uniform(3, 3), 0).bases == uniform(2, 2).bases


def test_delete_fano_point():
    pg = projective_geometry(3, 2)
    through = sum(1 for b in pg.bases if b & 1)
    assert through == 12
    assert delete(pg, 0).basis_count == 28 - 12


def test_contract_uniform():
    assert contract(uniform(3, 6), 0).bases == uniform(2, 5).bases


def _class_sizes(M, reps):
    """The sizes of the parallel classes of the non-loops of M, one per
    representative in ``reps``."""
    loops = loops_mask(M)
    return sorted((closure(M, 1 << rep) & ~loops).bit_count() for rep in reps)


def test_contract_fano_simplifies_to_triangle():
    pg = projective_geometry(3, 2)
    contracted = contract(pg, 0)
    simple, reps = simplify(contracted)
    assert simple.bases == uniform(2, 3).bases
    assert _class_sizes(contracted, reps) == [2, 2, 2]


@given(linear_matroids(min_n=3))
def test_delete_contract_commute_on_disjoint_elements(M):
    # classical commutation needs every step to be the honest operation,
    # not rerouted by the loop/coloop conventions
    if is_coloop(M, 0) or loops_mask(M) & 0b10:
        return
    if loops_mask(delete(M, 0)) & 1 or is_coloop(contract(M, 1), 0):
        return
    a = contract(delete(M, 0), 0)
    b = delete(contract(M, 1), 0)
    assert a == b


def test_simplify_already_simple():
    M = uniform(2, 3)
    simple, reps = simplify(M)
    assert simple == M
    assert reps == tuple(range(M.n)) and _class_sizes(M, reps) == [1] * M.n


def test_blowup_then_simplify_roundtrip():
    M = uniform(2, 3)
    blown = parallel_blowup(M, [2, 2, 2])
    simple, reps = simplify(blown)
    assert simple.bases == M.bases
    assert _class_sizes(blown, reps) == [2, 2, 2]


def test_direct_sum_counts():
    M = direct_sum(uniform(2, 4), uniform(1, 2))
    assert (M.n, M.r, M.basis_count) == (6, 3, 12)


def test_direct_sum_with_loops_keeps_bases():
    loops = Matroid.from_bases(2, [0])
    M = uniform(2, 3)
    summed = direct_sum(M, loops)
    assert summed.basis_count == M.basis_count
    assert summed.r == M.r


def test_direct_sum_balanced_rank2_copies():
    # r/2 copies of a rank-2 uniform on 2n/r elements: C(2n/r, 2)^(r/2) bases
    M = direct_sum(uniform(2, 4), uniform(2, 4))
    assert M.basis_count == comb(4, 2) ** 2


def test_truncate_uniform():
    assert truncate(uniform(3, 4), 1).bases == uniform(2, 4).bases
    M = uniform(3, 5)
    assert truncate(M, 0) == M
    with pytest.raises(MatroidError):
        truncate(M, 3)


def test_truncate_fano_gives_free_rank2():
    assert truncate(projective_geometry(3, 2), 1).bases == uniform(2, 7).bases


@given(linear_matroids(max_n=6))
def test_truncate_bases_are_subsets_of_bases(M):
    if M.r < 2:
        return
    T = truncate(M, 1)
    expected = set()
    for b in M.bases:
        for e in bit_indices(b):
            expected.add(b & ~(1 << e))
    assert set(T.bases) == expected


def test_circuits_and_circumference():
    # the circuit oracle behind connected_components_oracle
    assert circuits(uniform(2, 3)) == [0b111]


def test_basis_count_examples():
    assert uniform(2, 4).basis_count == 6
    assert projective_geometry(3, 3).basis_count == 234


@given(linear_matroids(max_n=5), linear_matroids(max_n=5))
def test_direct_sum_product_rule(M1, M2):
    assert direct_sum(M1, M2).basis_count == M1.basis_count * M2.basis_count


def test_parallel_blowup_examples():
    assert parallel_blowup(uniform(1, 1), [3]).bases == uniform(1, 3).bases
    blown = parallel_blowup(projective_geometry(3, 2), [2] * 7)
    assert (blown.n, blown.basis_count) == (14, 224)
    with pytest.raises(MatroidError):
        parallel_blowup(uniform(1, 1), [0])


def test_blowup_count_matches_weighted_sum():
    M = uniform(2, 3)
    mult = [2, 3, 4]
    blown = parallel_blowup(M, mult)
    expected = sum(
        mult[a] * mult[b] for a, b in combinations(range(3), 2)
    )
    assert blown.basis_count == expected


def test_rank_monotone_and_submodular_exhaustively():
    for M in (uniform(2, 4), projective_geometry(3, 2), two_disjoint_lines(3, 3)):
        full = 1 << M.n
        for x in range(full):
            rx = rank_of(M, x)
            for y in range(full):
                ry = rank_of(M, y)
                assert rank_of(M, x | y) + rank_of(M, x & y) <= rx + ry
                if x & ~y == 0:
                    assert rx <= ry


def test_averaging_identity_deletion(rng):
    checked = 0
    while checked < 40:
        M = random_linear_matroid(rng, min_n=3, max_n=7)
        if loops_mask(M) or any(is_coloop(M, e) for e in range(M.n)) or M.n == M.r:
            continue
        total = Fraction(0)
        for v in range(M.n):
            total += Fraction(delete(M, v).basis_count, comb(M.n - 1, M.r))
        assert total / M.n == Fraction(M.basis_count, comb(M.n, M.r))
        checked += 1


def test_averaging_identity_contraction(rng):
    checked = 0
    while checked < 40:
        M = random_linear_matroid(rng, min_n=3, max_n=7)
        if loops_mask(M) or M.r < 1:
            continue
        total = Fraction(0)
        for v in range(M.n):
            total += Fraction(contract(M, v).basis_count, comb(M.n - 1, M.r - 1))
        assert total / M.n == Fraction(M.basis_count, comb(M.n, M.r))
        checked += 1


def test_connected_components_direct_sum():
    M = direct_sum(uniform(2, 4), uniform(1, 2))
    comps = connected_components(M)
    assert comps == [0b001111, 0b110000]
    assert all(rank_of(M, c) <= 2 for c in comps)


def test_connected_components_loop_and_coloop():
    # element 4 is a coloop and element 5 a loop: each is its own component
    M = direct_sum(direct_sum(uniform(2, 4), uniform(1, 1)), uniform(0, 1))
    assert is_coloop(M, 4) and loops_mask(M) == 0b100000
    assert connected_components(M) == [0b001111, 0b010000, 0b100000]
    assert connected_components(M) == connected_components_oracle(M)


@given(linear_matroids())
def test_connected_components_match_oracle(M):
    assert connected_components(M) == connected_components_oracle(M)


def test_matroid_values_hashable_and_ordered():
    M = uniform(2, 4)
    assert len({M, uniform(2, 4)}) == 1
    assert M.bases == tuple(sorted(M.bases))


@given(linear_matroids(max_n=6))
def test_simplify_preserves_rank_and_simplicity(M):
    simple, _ = simplify(M)
    assert simple.r == M.r
    assert is_simple(simple)


def _assert_simplify_matches_oracle(M):
    simple, reps = simplify_oracle(M)
    assert simplify(M) == (simple, reps), M
    assert is_simple(M) == (simple == M), M


@given(linear_matroids())
def test_simplify_matches_oracle_on_linear_matroids(M):
    _assert_simplify_matches_oracle(M)


def test_simplify_matches_oracle():
    for M in oracle_matroids():
        _assert_simplify_matches_oracle(M)


def test_flats_match_oracle():
    # every rank from the loops (k = 0) through the parallel classes, lines,
    # colines and hyperplanes to the ground set (k = r)
    for M in oracle_matroids():
        for k in range(M.r + 1):
            assert flats(M, k) == flats_oracle(M, k), (M, k)
        assert flats(M, 0) == [loops_mask(M)], M
        assert flats(M, M.r) == [M.full_mask], M
        for k in (-1, M.r + 1):
            with pytest.raises(MatroidError):
                flats(M, k)


def oracle_subsets(M, rng):
    """The empty set, the ground set and ten random subsets of it."""
    return [0, M.full_mask] + [rng.getrandbits(M.n) for _ in range(10)]


def test_closure_matches_oracle(rng):
    for M in oracle_matroids():
        for X in oracle_subsets(M, rng):
            assert closure(M, X) == closure_oracle(M, X), (M, X)


def test_restrict_matches_oracle(rng):
    for M in oracle_matroids():
        for X in oracle_subsets(M, rng):
            assert restrict(M, X) == restrict_oracle(M, X), (M, X)
