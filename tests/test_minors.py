"""Daisy search, uniform minors and restrictions, matroid counting."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.bitsets import bit_indices, mask_of
from turan_matroids.hypergraphs import (
    DaisyRows,
    UniformHypergraph,
    basis_hypergraph,
    complete_uniform,
    daisy,
    daisy_completed_by_edge,
    has_daisy,
    least_petal_set,
    suspension,
)
from turan_matroids.geometry import projective_geometry, rank3_multiline, two_disjoint_lines, uniform
from turan_matroids.matroid import MatroidError, rank_of, contract, delete, validate_exchange
from turan_matroids.minors import (
    count_matroids,
    has_uniform_minor,
    has_uniform_restriction,
    uniform_minor_oracle,
)

from conftest import linear_matroids, oracle_matroids
from oracles import (
    daisy_completed_by_edge_oracle,
    has_daisy_oracle,
    has_uniform_restriction_oracle,
    least_petal_set_oracle,
    matroidal_local_diagnostic,
)


def test_basis_hypergraph_of_uniform_is_complete():
    H = basis_hypergraph(uniform(3, 4))
    assert H.edges == complete_uniform(4, 3).edges
    assert len(H.edges) == 4
    assert validate_exchange(H.v, H.edges)


def test_two_disjoint_edges_not_matroidal():
    H = UniformHypergraph.from_edges(4, 2, [0b0011, 0b1100])
    assert not validate_exchange(H.v, H.edges)


def test_single_edge_matroidal():
    H = UniformHypergraph.from_edges(6, 3, [0b000111])
    assert validate_exchange(H.v, H.edges)


def test_local_diagnostic_agrees_exhaustively_small():
    # all 3-uniform hypergraphs on 5 vertices
    triples = [mask_of(c) for c in combinations(range(5), 3)]
    for pick in range(1, 1 << len(triples)):
        edges = [triples[i] for i in bit_indices(pick)]
        H = UniformHypergraph.from_edges(5, 3, edges)
        assert validate_exchange(H.v, H.edges) == matroidal_local_diagnostic(H)


@given(st.integers(1, 2**20 - 1))
def test_local_diagnostic_agrees_sampled_v6(pick):
    triples = [mask_of(c) for c in combinations(range(6), 3)]
    edges = [triples[i] for i in bit_indices(pick)]
    H = UniformHypergraph.from_edges(6, 3, edges)
    assert validate_exchange(H.v, H.edges) == matroidal_local_diagnostic(H)


def test_suspension_shapes():
    H = complete_uniform(4, 2)
    S = suspension(H, 3)
    assert len(S.edges) == len(H.edges) == 6
    assert S.v == H.v + 1
    assert suspension(H, 2) == H
    assert daisy(3, 2, 4).edges == S.edges


def test_has_daisy_examples():
    assert has_daisy(basis_hypergraph(uniform(3, 6)), 2, 4)[0]
    assert not has_daisy(basis_hypergraph(projective_geometry(3, 2)), 2, 4)[0]
    K = complete_uniform(5, 3)
    found, witness = has_daisy(K, 3, 5)
    assert found and witness == (0, 0b11111)


def test_daisy_witness_is_valid():
    H = basis_hypergraph(uniform(3, 6))
    found, (stem, petals) = has_daisy(H, 2, 4)
    assert found and stem & petals == 0
    assert stem.bit_count() == 1 and petals.bit_count() == 4
    edge_set = set(H.edges)
    for pair in combinations(list(bit_indices(petals)), 2):
        assert stem | mask_of(pair) in edge_set


def test_daisy_completed_by_edge_incremental():
    # the edges of K_4^(3) in lexicographic order: the first three and the
    # last form the (3, 4) daisy, and no fewer do
    rows = DaisyRows(4, 3, 3, 4)
    assert daisy_completed_by_edge(rows, 0b111, 3)
    assert not daisy_completed_by_edge(rows, 0b011, 3)
    assert not daisy_completed_by_edge(rows, 0b011, 2)


@pytest.mark.parametrize(
    "k,s,t",
    [
        (2, 2, 3),
        (3, 3, 4),
        (3, 2, 4),
        (3, 2, 5),
        (3, 1, 3),
        (4, 2, 4),
        (3, 3, 3),
        (3, 1, 4),
        (4, 4, 5),
    ],
)
def test_stem_links_match_oracle(k, s, t):
    # the daisy rows against the oracle, which builds the link of each stem
    # inside edge i; stems of k - s = 0, 1 and 2 elements; every family of
    # edges below edge i on k + 2 vertices, and 200 seeded ones of random
    # density per edge on k + 3 vertices
    rng = random.Random(1000 * k + 100 * s + t)
    answers = []
    for n in (k + 2, k + 3):
        rows = DaisyRows(n, k, s, t)
        edges = rows.edges
        assert edges == [mask_of(c) for c in combinations(range(n), k)]
        for i, edge in enumerate(edges):
            if n == k + 2:
                families = range(1 << i)
            else:
                families = []
                for _ in range(200):
                    density = rng.random()
                    families.append(mask_of(j for j in range(i) if rng.random() < density))
            for fam in families:
                got = daisy_completed_by_edge(rows, fam, i)
                family = {edges[j] for j in bit_indices(fam)} | {edge}
                assert got == daisy_completed_by_edge_oracle(family, k, s, t, edge), (n, i, fam)
                answers.append(got)
    assert True in answers and (False in answers or s == t)


@pytest.mark.parametrize("n", range(1, 8))
def test_daisy_rows_hold_each_daisy_once(n):
    # each (s, t) daisy of the complete k-graph on [n] is formed by exactly
    # one pair of one row, the row of its highest edge: edge i and ``count``
    # edges of the pair's mask below i
    for k in range(1, n + 1):
        for s in range(1, k + 1):
            for t in range(s, n - k + s + 1):
                rows = DaisyRows(n, k, s, t)
                index = rows.index
                daisies = [
                    mask_of(index[stem | q] for q in map(mask_of, combinations(petals, s)))
                    for stem in map(mask_of, combinations(range(n), k - s))
                    for petals in combinations([v for v in range(n) if not stem >> v & 1], t)
                ]
                formed = []
                for i in range(len(rows.edges)):
                    for mask, count in rows[i]:
                        lower = [j for j in bit_indices(mask) if j < i]
                        formed += [mask_of(c) | 1 << i for c in combinations(lower, count)]
                assert sorted(formed) == sorted(daisies), (n, k, s, t)


def test_least_petal_set_matches_oracle():
    # families that need not come from a matroid or a link: ``outside`` is
    # drawn on its own, s runs from 0, and t runs one past v
    rng = random.Random(20261020)
    answers = []
    for _ in range(300):
        v = rng.randint(0, 8)
        s = rng.randint(0, min(3, v + 1))
        t = rng.randint(s, v + 1)
        vertices = mask_of(u for u in range(v) if rng.random() < 0.9)
        density, sparsity = rng.uniform(0.5, 1), rng.uniform(0, 0.3)
        inside = [mask_of(c) for c in combinations(range(v), s) if rng.random() < density]
        outside = [mask_of(c) for c in combinations(range(v), s + 1) if rng.random() < sparsity]
        got = least_petal_set(vertices, s, t, inside, outside)
        assert got == least_petal_set_oracle(vertices, s, t, inside, outside), (vertices, s, t)
        answers.append(got)
    assert any(got is None for got in answers) and any(got for got in answers)
    assert least_petal_set(0b111, 0, 2, [], []) is None  # the empty set is not in ``inside``
    assert least_petal_set(0b1001, 2, 2, [0b1001, 0b0110]) == 0b1001  # {0,3} before {1,2}


def test_has_uniform_minor_examples():
    assert has_uniform_minor(uniform(2, 3), 2, 3)[0]
    assert not has_uniform_minor(projective_geometry(3, 2), 2, 4)[0]
    assert not has_uniform_minor(two_disjoint_lines(4, 4), 3, 5)[0]
    assert not has_uniform_minor(uniform(2, 3), 3, 3)[0]  # s above rank


def test_minor_witness_maps_to_uniform_minor():
    M = uniform(3, 6)
    found, w = has_uniform_minor(M, 2, 4)
    assert found
    assert rank_of(M, w.contracted) == w.contracted.bit_count()
    for sub in combinations(list(bit_indices(w.selected)), 2):
        assert rank_of(M, w.contracted | mask_of(sub)) == M.r


@given(linear_matroids(max_n=6))
def test_minor_monotone_in_t(M):
    for s in range(1, M.r + 1):
        present = [has_uniform_minor(M, s, t)[0] for t in range(s, M.n + 1)]
        # once absent at t, absent for all larger t
        for a, b in zip(present, present[1:]):
            assert a or not b


def test_minor_stable_under_minors(rng):
    for _ in range(25):
        M = random_linear_matroid(rng, min_n=3, max_n=6)
        for s in range(1, M.r + 1):
            for t in range(s, M.n):
                for e in range(M.n):
                    for N in (delete(M, e), contract(M, e)):
                        if s <= N.r and has_uniform_minor(N, s, t)[0]:
                            assert has_uniform_minor(M, s, t)[0]


def test_has_uniform_restriction_examples():
    assert has_uniform_restriction(uniform(3, 5), 3, 4)[0]
    assert not has_uniform_restriction(projective_geometry(3, 2), 3, 5)[0]
    # two 3-point lines exhaust the ground set: any 5 points meet a line
    # in 3, so there is no free 5-point restriction (but there is a free
    # 4-point one, two points from each line)
    assert not has_uniform_restriction(rank3_multiline([3, 3]), 3, 5)[0]
    assert has_uniform_restriction(rank3_multiline([3, 3]), 3, 4)[0]
    # with three lines, 2+2+1 points avoid every line
    assert has_uniform_restriction(rank3_multiline([3, 3, 3]), 3, 5)[0]


def test_restriction_witness_is_uniform():
    M = rank3_multiline([3, 3, 3])
    found, subset = has_uniform_restriction(M, 3, 5)
    assert found and subset.bit_count() == 5
    assert rank_of(M, subset) == 3
    for sub in combinations(list(bit_indices(subset)), 3):
        assert rank_of(M, mask_of(sub)) == 3


def test_detector_agrees_with_oracle(rng):
    for _ in range(60):
        M = random_linear_matroid(rng, min_n=2, max_n=6)
        for s in range(1, M.r + 1):
            for t in range(s, M.n + 1):
                assert has_uniform_minor(M, s, t)[0] == uniform_minor_oracle(M, s, t)


def test_count_matroids_values():
    assert count_matroids(3, 2) == 7
    for n in range(1, 6):
        for r in range(n + 1):
            assert count_matroids(n, r) == count_matroids(n, n - r)
    assert count_matroids(4, 2) == 36


def test_count_matroids_budget_guard():
    with pytest.raises(MatroidError):
        count_matroids(7, 3)


def test_count_matroids_up_to_iso():
    # 7 labeled rank-2 families on a 3-set: three singletons, three pairs,
    # and the full triangle, giving 3 relabeling classes
    assert count_matroids(3, 2, up_to_iso=True) == 3
    # unlabeled matroids on n = 0..5 elements (Mayhew and Royle)
    totals = [sum(count_matroids(n, r, up_to_iso=True) for r in range(n + 1)) for n in range(6)]
    assert totals == [1, 2, 4, 8, 17, 38]
    assert [count_matroids(5, r, up_to_iso=True) for r in range(6)] == [1, 5, 13, 13, 5, 1]


def test_has_uniform_restriction_matches_oracle():
    for M in oracle_matroids():
        for s in range(M.r + 1):
            for t in range(s, M.n + 1):
                expected = has_uniform_restriction_oracle(M, s, t)
                assert has_uniform_restriction(M, s, t) == expected, (M, s, t)


def test_has_daisy_matches_oracle():
    for M in oracle_matroids():
        H = basis_hypergraph(M)
        for s in range(1, M.r + 1):
            for t in range(s, M.n + 1):
                assert has_daisy(H, s, t) == has_daisy_oracle(H, s, t), (M, s, t)


def test_has_daisy_matches_oracle_on_random_hypergraphs():
    # has_daisy is public on any uniform hypergraph, not only basis families;
    # densities near 0 give empty edge sets, and t runs one past v
    rng = random.Random(20261019)
    for _ in range(300):
        v = rng.randint(1, 9)
        k = rng.randint(1, min(5, v))
        density = rng.random()
        edges = [mask_of(c) for c in combinations(range(v), k) if rng.random() < density]
        H = UniformHypergraph.from_edges(v, k, edges)
        for s in range(1, k + 1):
            for t in range(s, v + 2):
                assert has_daisy(H, s, t) == has_daisy_oracle(H, s, t), (H, s, t)
