"""Finite fields and the explicit matroid constructions."""

import pytest

from turan_matroids.bounds import kung_point_bound, projective_basis_count
from turan_matroids.fields import FieldError, make_field, smallest_irreducible
from turan_matroids.geometry import (
    bose_burton,
    bose_burton_points,
    lines_of,
    matroid_from_vectors,
    projective_geometry,
    rank3_from_lines,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from turan_matroids.hypergraphs import basis_hypergraph, complete_uniform
from turan_matroids.matroid import MatroidError, validate_exchange
from turan_matroids.minors import has_uniform_minor

from conftest import oracle_matroids
from oracles import lines_of_oracle, multiline_with_blowup


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25])
def test_fields_construct_and_verify(q):
    F = make_field(q)  # construction includes a full axiom check
    assert F.q == q
    assert F.mul(1, 1) == 1 and F.add(0, 5 % q) == 5 % q


def test_gf4_characteristic_two():
    F = make_field(4)
    assert F.add(1, 1) == 0
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1


def test_gf3_is_integers_mod_3():
    F = make_field(3)
    for a in range(3):
        for b in range(3):
            assert F.mul(a, b) == (a * b) % 3
            assert F.add(a, b) == (a + b) % 3


def test_non_prime_power_rejected():
    with pytest.raises(FieldError):
        make_field(6)
    with pytest.raises(FieldError):
        make_field(12)


def test_smallest_irreducible_gf8():
    assert smallest_irreducible(2, 3) == [1, 1, 0, 1]  # x^3 + x + 1


def test_projective_line_is_uniform():
    assert projective_geometry(2, 3).bases == uniform(2, 4).bases


@pytest.mark.parametrize(
    "r,q",
    [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)],
)
def test_projective_counts_match_formula(r, q):
    M = projective_geometry(r, q)
    assert M.n == kung_point_bound(r, q)
    assert M.basis_count == projective_basis_count(r, q)
    assert M.r == r


def test_projective_plane_order_three():
    M = projective_geometry(3, 3)
    assert (M.n, M.basis_count) == (13, 234)


def test_projective_geometries_are_u24_free_over_gf2():
    for r in (2, 3, 4):
        assert not has_uniform_minor(projective_geometry(r, 2), 2, 4)[0]


def test_projective_cap():
    with pytest.raises(MatroidError):
        projective_geometry(4, 5)  # 156 points


def test_bose_burton_small_cases():
    bb = bose_burton(3, 2, 1)
    assert bb.bases == uniform(3, 4).bases
    assert bb.basis_count == 4
    assert bose_burton(2, 3, 1).bases == uniform(2, 3).bases
    assert len(bose_burton_points(4, 2, 1)) == 8


def test_bose_burton_point_count_formula():
    for r, q, c in ((3, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 2), (3, 5, 1)):
        pts = bose_burton_points(r, q, c)
        assert len(pts) == (q**r - q ** (r - c)) // (q - 1)
        assert bose_burton(r, q, c).r == r


def test_bose_burton_avoids_small_flats():
    # removing a rank-(r-1) flat from the binary geometry leaves no full line
    bb = bose_burton(3, 2, 1)
    assert all(ln.bit_count() <= 2 for ln in lines_of(bb))
    # at c = 2 only 6 of the 7 points remain, so no embedded 7-point plane
    assert bose_burton(3, 2, 2).n == 6


def test_uniform_basics():
    assert uniform(2, 4).basis_count == 6
    assert uniform(5, 5).basis_count == 1
    assert basis_hypergraph(uniform(2, 4)).edges == complete_uniform(4, 2).edges


def test_rank3_multiline_two_short_lines():
    M = rank3_multiline([3, 3])
    assert M.n == 6
    assert M.basis_count == 20 - 2  # only the two line-triples fail


def test_rank3_multiline_line_plus_parallel_class():
    M = rank3_multiline([3], parallel_class=2)
    # closed-form from the construction: |P| * C(sum of line sizes, 2)
    assert M.basis_count == 2 * 3
    assert M.bases == multiline_with_blowup([3], 2).bases


def test_rank3_multiline_closed_form_general():
    sizes = [3, 4]
    pclass = 3
    M = rank3_multiline(sizes, pclass)
    total = sum(sizes)
    expected = (
        pclass * (total * (total - 1) // 2)
        + sum(
            (sizes[p] * (sizes[p] - 1) // 2) * sizes[q]
            for p in range(2)
            for q in range(2)
            if p != q
        )
    )
    assert M.basis_count == expected
    assert M.bases == multiline_with_blowup(sizes, pclass).bases


def test_rank3_multiline_validation():
    with pytest.raises(MatroidError):
        rank3_multiline([2, 3])  # short line without allow flag
    with pytest.raises(MatroidError):
        rank3_multiline([3])  # rank 2 only
    with pytest.raises(MatroidError):
        rank3_multiline([1, 3], simple_lines=False)


def test_two_disjoint_lines_counts():
    assert two_disjoint_lines(7, 7).basis_count == 294
    assert two_disjoint_lines(2, 2).bases == uniform(3, 4).bases
    assert two_disjoint_lines(3, 3).basis_count == 18


def test_rank3_from_lines_compatibility():
    with pytest.raises(MatroidError):
        rank3_from_lines(5, [0b00111, 0b01110])  # share two points
    M = rank3_from_lines(6, [0b000111, 0b111000])
    assert M.basis_count == two_disjoint_lines(3, 3).basis_count


def test_constructions_pass_exchange():
    for M in (
        projective_geometry(3, 2),
        projective_geometry(3, 3),
        bose_burton(3, 2, 1),
        bose_burton(4, 2, 1),
        uniform(3, 6),
        rank3_multiline([3, 4], 2),
        two_disjoint_lines(4, 5),
    ):
        assert validate_exchange(M.n, M.bases)


def test_matroid_from_vectors_rank_and_loops():
    M = matroid_from_vectors([(1, 0), (0, 1), (1, 1), (0, 0)], 2)
    assert M.r == 2
    assert M.n == 4
    # the zero column is a loop: appears in no basis
    assert all(not b & 0b1000 for b in M.bases)


def test_lines_of_fano():
    pg = projective_geometry(3, 2)
    lines = lines_of(pg)
    assert len(lines) == 7
    assert all(ln.bit_count() == 3 for ln in lines)


def test_lines_of_matches_oracle():
    matroids = oracle_matroids() + [rank3_multiline([5, 5, 4]), two_disjoint_lines(7, 7)]
    for M in matroids:
        if M.r >= 2:
            assert lines_of(M) == lines_of_oracle(M)
