"""Exact rational evaluators: formulas, recursions, identities, bands."""

from fractions import Fraction
from math import factorial

import pytest

from turan_matroids.bounds import (
    closed_form,
    euler_product_interval,
    ex_u1,
    ex_u34_even,
    ex_u34_odd_leading,
    ex_u35,
    kung_point_bound,
    largest_prime_power_leq,
    pi_u34,
    prime_band,
    projective_basis_count,
    rank3_lower_even,
    rank3_lower_odd,
    u2_density,
    u2_density_from_count,
    u2_max_bases_bound,
)
from turan_matroids.matroid import MatroidError

from oracles import projective_basis_count_recursive


def test_basis_count_formula_values():
    assert projective_basis_count(1, 5) == 1
    assert projective_basis_count(3, 2) == 28
    assert projective_basis_count(3, 3) == 234


def test_recursion_identity():
    for r in range(1, 9):
        for t in range(2, 8):
            assert projective_basis_count(r, t) == projective_basis_count_recursive(r, t)
            if r >= 2:
                prev = projective_basis_count(r - 1, t)
                step = Fraction(t ** (r - 1) * (t**r - 1), r * (t - 1))
                assert projective_basis_count(r, t) == prev * step


def test_kung_bound_values():
    assert kung_point_bound(3, 2) == 7
    assert kung_point_bound(3, 3) == 13
    for q in range(2, 9):
        assert kung_point_bound(2, q) == q + 1


def test_u2_max_bases_bound_values():
    assert u2_max_bases_bound(14, 3, 2) == 224
    assert u2_max_bases_bound(7, 3, 2) == 28
    for n in range(3, 10):
        assert u2_max_bases_bound(n, 1, 3) == n


def test_density_values_and_identity():
    assert u2_density(3, 2) == Fraction(6, 7) * Fraction(4, 7) == Fraction(24, 49)
    for q in range(2, 8):
        assert u2_density(2, q) == Fraction(q, q + 1)
    for r in range(2, 7):
        for q in range(2, 6):
            assert u2_density(r, q) == u2_density_from_count(r, q)


def test_density_decreasing_toward_product():
    for q in (2, 3):
        lo, hi = euler_product_interval(q, Fraction(1, 10**12))
        seq = [u2_density(r, q) for r in range(2, 13)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert seq[-1] >= lo
        assert seq[-1] - hi <= Fraction(2, q**10)


def test_euler_product_values():
    lo, hi = euler_product_interval(2, Fraction(1, 10**10))
    assert abs(float(lo) - 0.2887880951) < 1e-9
    assert hi - lo <= Fraction(1, 10**10)
    lo3, hi3 = euler_product_interval(3, Fraction(1, 10**6))
    assert abs(float(lo3) - 0.5601) < 1e-4


def test_closed_form_selectors():
    assert closed_form("ex_u1", n=4, r=3, t=3) == 8
    assert closed_form("pi_u34", r=3) == Fraction(4, 9)
    assert closed_form("ex_u35", n=14) == 294
    assert closed_form("pi_u35") == Fraction(3, 4)
    assert closed_form("ex_u23", n=4, r=2) == 4
    assert closed_form("ex_u23", n=6, r=2) == 9
    with pytest.raises(MatroidError):
        closed_form("nope")


def test_closed_form_rank3_lower_bounds():
    assert rank3_lower_odd(2) == Fraction(3, 4)
    assert rank3_lower_even(2) == Fraction(64, 81)
    for m in range(2, 6):
        assert rank3_lower_even(m) == 1 - Fraction(2, 2 * m * m + 1) + Fraction(
            1, (2 * m * m + 1) ** 2
        )


def test_u34_closed_forms():
    assert ex_u34_even(8, 4) == 36  # two balanced rank-2 blocks of 4
    assert ex_u34_odd_leading(9, 3) == 3 * 15  # 3 * C(6,2)
    assert pi_u34(4) == Fraction(factorial(4) * 4, 4**4)


def test_parity_preconditions_are_hard_errors():
    with pytest.raises(MatroidError):
        ex_u34_even(8, 3)
    with pytest.raises(MatroidError):
        ex_u34_odd_leading(8, 4)
    with pytest.raises(MatroidError):
        ex_u35(13)


def test_ex_u1_matches_search_values():
    assert ex_u1(3, 1, 3) == 2
    assert ex_u1(4, 3, 3) == 8


def test_largest_prime_power():
    assert largest_prime_power_leq(6) == 5
    assert largest_prime_power_leq(10) == 9
    assert largest_prime_power_leq(16) == 16


def test_prime_band():
    lo, hi, q = prime_band(3, 7)
    assert q == 7 and lo == u2_density(3, 7)
    lo, hi, q = prime_band(3, 6)
    assert q == 5 and lo == u2_density(3, 5) and hi > lo
    _, _, q = prime_band(2, 10)
    assert q == 9
