"""Basis-polynomial evaluation and simplex maximization."""

from fractions import Fraction

import numpy as np
import pytest

from turan_matroids import lagrangian
from turan_matroids.acceptance import random_linear_matroid
from turan_matroids.geometry import (
    bose_burton,
    projective_geometry,
    two_disjoint_lines,
    uniform,
)
from turan_matroids.lagrangian import (
    _BasisPolynomial,
    _fixed_point_run,
    maximize,
    poly_eval,
    poly_gradient,
    u2_lagrangian_bound,
)
from turan_matroids.matroid import (
    Matroid,
    MatroidError,
    TheoremViolation,
    direct_sum,
    parallel_blowup,
)

from conftest import oracle_matroids
from oracles import (
    OraclePolynomial,
    grid_search_2simplex,
    poly_eval_oracle,
    poly_gradient_oracle,
)


def fano_blowup():
    return parallel_blowup(projective_geometry(3, 2), [2] * 7)


def assert_poly_matches_oracle(M, x):
    assert poly_eval(M, x) == poly_eval_oracle(M, x)
    assert np.array_equal(poly_gradient(M, x), poly_gradient_oracle(M, x))


def test_poly_matches_oracle_exactly():
    npr = np.random.default_rng(14)
    for M in oracle_matroids() + [fano_blowup()]:
        x = npr.exponential(size=M.n)
        x /= x.sum()
        assert_poly_matches_oracle(M, x)
        x[npr.random(M.n) < 0.4] = 0.0  # zero coordinates
        assert_poly_matches_oracle(M, x)


def test_poly_small_ranks_and_64_elements():
    rank0 = Matroid.from_bases(3, [0])
    assert poly_eval(rank0, [0.2, 0.3, 0.5]) == 1.0
    assert np.array_equal(poly_gradient(rank0, [0.2, 0.3, 0.5]), np.zeros(3))
    x = np.random.default_rng(15).exponential(size=64)
    for M in (rank0, uniform(1, 4), uniform(2, 64)):
        assert_poly_matches_oracle(M, x[: M.n])
    assert_poly_matches_oracle(uniform(2, 64), np.where(np.arange(64) % 3, x, 0.0))


def test_poly_rejects_wrong_length():
    with pytest.raises(MatroidError):
        poly_eval(uniform(2, 3), [0.5, 0.5])
    with pytest.raises(MatroidError):
        poly_gradient(uniform(2, 3), [0.25] * 4)


def test_at_returns_value_and_gradient_of_the_oracles():
    npr = np.random.default_rng(16)
    for M in (projective_geometry(3, 3), uniform(4, 7), uniform(1, 4), fano_blowup()):
        x = npr.exponential(size=M.n)
        x /= x.sum()
        value, grad = _BasisPolynomial(M).at(x)
        assert value == poly_eval_oracle(M, x)
        assert np.array_equal(grad, poly_gradient_oracle(M, x))


def test_maximize_matches_oracle_driven_run(rng, monkeypatch):
    matroids = [projective_geometry(3, 3), fano_blowup(), two_disjoint_lines(7, 7)]
    # rank 4, 60 bases, 10 iterations: the gradient multiplies terms[:j] for j = 1..3
    matroids.append(direct_sum(two_disjoint_lines(3, 4), uniform(1, 2)))
    matroids += [random_linear_matroid(rng, max_n=8) for _ in range(20)]
    fast = [maximize(M) for M in matroids]
    monkeypatch.setattr(lagrangian, "_BasisPolynomial", OraclePolynomial)
    for M, got in zip(matroids, fast):
        want = maximize(M)
        assert got.value == want.value
        assert np.array_equal(got.argmax, want.argmax)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)


def test_poly_eval_symmetric_triangle():
    M = uniform(2, 3)
    assert abs(poly_eval(M, [1 / 3] * 3) - 1 / 3) < 1e-15


def test_poly_eval_point_mass_vanishes():
    M = uniform(2, 4)
    x = np.zeros(4)
    x[1] = 1.0
    assert poly_eval(M, x) == 0.0


def test_poly_eval_fano_uniform_weights():
    pg = projective_geometry(3, 2)
    assert abs(poly_eval(pg, [1 / 7] * 7) - 28 / 343) < 1e-15


def test_gradient_triangle():
    M = uniform(2, 3)
    g = poly_gradient(M, [1 / 3] * 3)
    assert np.allclose(g, [2 / 3, 2 / 3, 2 / 3])  # each partial is x_j + x_k


def test_euler_identity_random_points(rng):
    npr = np.random.default_rng(11)
    for _ in range(30):
        M = random_linear_matroid(rng, max_n=7)
        x = npr.exponential(size=M.n)
        x /= x.sum()
        resid = abs(float(np.dot(x, poly_gradient(M, x))) - M.r * poly_eval(M, x))
        assert resid < 1e-12


def test_gradient_matches_central_differences(rng):
    npr = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        M = random_linear_matroid(rng, max_n=6)
        x = npr.exponential(size=M.n)
        x /= x.sum()
        grad = poly_gradient(M, x)
        fd = np.zeros(M.n)
        for i in range(M.n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (poly_eval(M, xp) - poly_eval(M, xm)) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-9)
        assert float(np.max(np.abs(grad - fd))) / scale < 1e-6


def test_maximize_triangle_matches_grid_oracle():
    M = uniform(2, 3)
    res = maximize(M)
    oracle = grid_search_2simplex(M, resolution=1000)
    assert res.value >= oracle - 1e-9
    assert abs(res.value - 1 / 3) < 1e-9


def test_maximize_fano_certified():
    res = maximize(projective_geometry(3, 2), bound_t=2)
    assert abs(res.value - 28 / 343) < 1e-9
    assert res.certified and res.converged
    assert abs(poly_eval(projective_geometry(3, 2), res.argmax) - res.value) < 1e-12


def test_maximize_bound_not_applicable():
    # U(2,5) has a U(2,4)-minor, so the t = 2 bound 1/3 does not cover it
    res = maximize(uniform(2, 5), bound_t=2)
    assert abs(res.value - 0.4) < 1e-9
    assert res.bound_applies is False and res.certified is False
    assert res.exact_bound == Fraction(1, 3)


def test_maximize_broken_bound_raises(monkeypatch):
    monkeypatch.setattr(lagrangian, "u2_lagrangian_bound", lambda r, t: Fraction(1, 100))
    with pytest.raises(TheoremViolation):
        maximize(projective_geometry(3, 2), bound_t=2)


def test_maximize_rejects_bad_bound_t_before_any_run(monkeypatch):
    def fail(*args):
        raise AssertionError("restart run for an invalid bound_t")

    monkeypatch.setattr(lagrangian, "_fixed_point_run", fail)
    for t in (1, 0, -3):
        with pytest.raises(MatroidError, match="need r >= 1 and t >= 2"):
            maximize(projective_geometry(3, 4), bound_t=t)


def test_maximize_within_bound_skips_minor_check(monkeypatch):
    def fail(*args):
        raise AssertionError("minor check made for a value within the bound")

    monkeypatch.setattr(lagrangian, "has_uniform_minor", fail)
    assert maximize(projective_geometry(3, 2), bound_t=2).certified
    res = maximize(uniform(2, 3), bound_t=3)
    assert not res.certified and res.bound_applies


def test_maximize_invariant_under_blowup():
    pg = projective_geometry(3, 2)
    blown = parallel_blowup(pg, [2] * 7)
    assert abs(maximize(blown).value - maximize(pg).value) < 1e-10


def test_maximize_ignores_loops():
    M = uniform(2, 4)
    with_loop = direct_sum(M, Matroid.from_bases(1, [0]))
    assert abs(maximize(with_loop).value - maximize(M).value) < 1e-12


def test_maximize_invariant_under_relabeling():
    M = uniform(2, 4)
    relabeled = Matroid.from_bases(4, [0b1100, 0b1010, 0b0110, 0b1001, 0b0101, 0b0011])
    assert abs(maximize(M).value - maximize(relabeled).value) < 1e-12


def test_free_matroid_value():
    for r in (2, 3, 4):
        res = maximize(uniform(r, r))
        assert abs(res.value - (1 / r) ** r) < 1e-12


def test_rank_zero_rejected():
    with pytest.raises(MatroidError):
        maximize(Matroid.from_bases(3, [0]))


def test_iteration_monotone_diagnostic(rng):
    # x <- x grad p / (r p) is the Baum-Eagon growth transform, so p never
    # decreases along the library's own run, up to roundoff
    matroids = [projective_geometry(3, 2), uniform(2, 5), uniform(3, 6)]
    matroids += [projective_geometry(3, 3), fano_blowup()]
    matroids += [random_linear_matroid(rng, max_n=8) for _ in range(3)]
    for M in matroids:
        poly = _BasisPolynomial(M)
        npr = np.random.default_rng(13)
        for _ in range(20):
            x0 = npr.exponential(size=M.n)
            before = _fixed_point_run(poly, x0, 0.0, 0)[0]
            for k in range(1, 31):
                after = _fixed_point_run(poly, x0, 0.0, k)[0]
                assert after >= before * (1 - 1e-15), (M, k)
                before = after


def test_bound_values():
    assert u2_lagrangian_bound(1, 5) == 1
    assert u2_lagrangian_bound(3, 2) == Fraction(28, 343)
    assert u2_lagrangian_bound(2, 3) == Fraction(3, 8)


def test_bound_holds_for_minor_free_families():
    cases = [
        (parallel_blowup(projective_geometry(3, 2), [2] * 7), 3, 2),
        (bose_burton(3, 2, 1), 3, 2),
        (projective_geometry(2, 3), 2, 3),
        (bose_burton(3, 3, 1), 3, 3),
    ]
    for M, r, t in cases:
        res = maximize(M)
        assert res.value <= float(u2_lagrangian_bound(r, t)) + 1e-9
