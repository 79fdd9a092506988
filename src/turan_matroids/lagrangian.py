"""Basis-polynomial (Lagrangian) evaluation and maximization over the simplex.

The objective is p(x) = sum over bases B of prod_{i in B} x_i, maximized
over the standard simplex.  The optimizer is a multiplicative fixed point
x_i <- x_i dp_i(x) / (r p(x)), well defined by Euler's identity for
homogeneous polynomials and exactly simplex-preserving; it is run from the
uniform start plus seeded random restarts.  Loops and parallel copies never
change the optimum, so the iteration runs on the simplification and the
optimal weights are placed on class representatives.

There is no global-optimality guarantee from the iteration itself; when the
caller supplies the field-size parameter t of a known minor-free family,
the exact upper bound b(r,t)((t-1)/(t^r-1))^r certifies optimality whenever
the iterate matches it.  A value above that bound is explained only by a
U(2,t+2)-minor, the minor the bound excludes; without one it falsifies the
bound and raises TheoremViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bitsets import bit_indices
from .bounds import u2_lagrangian_bound
from .matroid import Matroid, MatroidError, simplify
from .minors import has_uniform_minor
from .rank3 import TheoremViolation

DEFAULT_SEED = 0x5EED
FREEZE_EPS = 1e-15


def poly_eval(M: Matroid, x) -> float:
    """p(x): compensated sum of basis monomials in sorted-basis order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n,):
        raise MatroidError(f"weight vector has length {x.size}, need {M.n}")
    terms = []
    for b in M.bases:
        prod = 1.0
        for i in bit_indices(b):
            prod *= x[i]
        terms.append(prod)
    return math.fsum(terms)


def poly_gradient(M: Matroid, x) -> np.ndarray:
    """Partial derivatives dp/dx_i = sum over bases through i of the
    complementary monomials."""
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n,):
        raise MatroidError(f"weight vector has length {x.size}, need {M.n}")
    per_coord = [[] for _ in range(M.n)]
    for b in M.bases:
        elems = list(bit_indices(b))
        for i in elems:
            prod = 1.0
            for j in elems:
                if j != i:
                    prod *= x[j]
            per_coord[i].append(prod)
    return np.array([math.fsum(terms) for terms in per_coord])


@dataclass(frozen=True)
class LagrangianResult:
    value: float
    argmax: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool
    bound: float | None = None
    exact_bound: Fraction | None = None
    certified: bool = False
    bound_applies: bool = True


def _fixed_point_run(M: Matroid, x0, tol, max_iter):
    """One multiplicative-iteration run; returns (value, x, iters, converged)."""
    x = np.array(x0, dtype=float)
    x[x < FREEZE_EPS] = 0.0
    s = x.sum()
    if s <= 0:
        return 0.0, x, 0, False
    x /= s
    value = poly_eval(M, x)
    for it in range(1, max_iter + 1):
        if value <= 0:
            return value, x, it, False
        grad = poly_gradient(M, x)
        x = x * grad / (M.r * value)
        x[x < FREEZE_EPS] = 0.0
        total = x.sum()
        if total <= 0:
            return value, x, it, False
        x /= total
        new_value = poly_eval(M, x)
        if abs(new_value - value) <= tol:
            return new_value, x, it, True
        value = new_value
    return value, x, max_iter, False


def maximize(
    M: Matroid,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    restarts: int = 16,
    seed: int = DEFAULT_SEED,
    bound_t: int | None = None,
) -> LagrangianResult:
    """Maximize p over the simplex; deterministic for fixed arguments.

    Restarts run in order from fixed starts and the best is chosen by
    (value desc, start index asc).  ``bound_t`` supplies the field-size
    parameter for the exact certification bound.  A value above the bound
    sets ``bound_applies`` to False when M has a U(2, bound_t+2)-minor and
    raises TheoremViolation when it has none.
    """
    if M.r == 0:
        raise MatroidError("rank-0 matroid: every element is a loop")
    simple, smap = simplify(M)
    rng = np.random.default_rng(seed)
    starts = [np.full(simple.n, 1.0 / simple.n)]
    for _ in range(restarts):
        raw = rng.exponential(size=simple.n)
        starts.append(raw / raw.sum())

    outcomes = [_fixed_point_run(simple, x0, tol, max_iter) for x0 in starts]

    best_idx = max(range(len(outcomes)), key=lambda i: (outcomes[i][0], -i))
    value, x_simple, iterations, converged = outcomes[best_idx]

    argmax = np.zeros(M.n)
    for i, rep in enumerate(smap.representatives):
        argmax[rep] = x_simple[i]
    value = poly_eval(M, argmax)

    exact_bound = None
    bound = None
    certified = False
    bound_applies = True
    if bound_t is not None:
        exact_bound = u2_lagrangian_bound(M.r, bound_t)
        bound = float(exact_bound)
        certified = abs(value - bound) < 1e-9
        if value > bound + 1e-9:
            if not has_uniform_minor(M, 2, bound_t + 2)[0]:
                raise TheoremViolation(
                    f"Lagrangian {value!r} exceeds the bound {bound!r} for t = {bound_t},"
                    f" yet there is no U(2,{bound_t + 2})-minor"
                )
            bound_applies = False
    return LagrangianResult(
        value=value,
        argmax=argmax,
        iterations=iterations,
        restarts_used=len(starts),
        converged=converged,
        bound=bound,
        exact_bound=exact_bound,
        certified=certified,
        bound_applies=bound_applies,
    )
