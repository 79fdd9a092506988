"""Basis-polynomial (Lagrangian) evaluation and maximization over the simplex.

The objective is p(x) = sum over bases B of prod_{i in B} x_i, maximized
over the standard simplex.  The optimizer is a multiplicative fixed point
x_i <- x_i dp_i(x) / (r p(x)), well defined by Euler's identity for
homogeneous polynomials and exactly simplex-preserving; it is run from the
uniform start plus seeded random restarts.  Loops and parallel copies never
change the optimum, so the iteration runs on the simplification and the
optimal weights are placed on class representatives.

Each iterate is evaluated in one pass: the basis products at x are formed
once, and p(x) and the next step's gradient are both summed from them, so
no product is formed twice per iterate.  Every sum is correctly rounded,
so the iterates do not depend on how the terms are grouped.

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
from .matroid import Matroid, MatroidError, TheoremViolation, simplify
from .minors import has_uniform_minor

DEFAULT_SEED = 0x5EED
FREEZE_EPS = 1e-15


class _BasisPolynomial:
    """p and its gradient for one matroid, evaluated with array arithmetic.

    ``cols`` has one row per basis, holding its elements in ascending order.
    ``at(x)`` forms the products at x once, one factor position at a time
    over all bases, so every monomial is still the product of its factors
    left to right in that order; p and the gradient are both read from
    them.  ``order`` and ``slices`` group the gradient's terms by
    coordinate.  Every sum is one ``math.fsum`` over a float64 buffer,
    read through a ``memoryview`` without copying it to a list; ``fsum``
    rounds correctly, so its result does not depend on the order of the
    terms.
    """

    def __init__(self, M: Matroid):
        self.r = M.r
        self.cols = np.array(
            [list(bit_indices(b)) for b in M.bases], dtype=np.intp
        ).reshape(len(M.bases), M.r)
        flat = self.cols.T.ravel()
        self.order = np.argsort(flat, kind="stable")
        starts = np.searchsorted(flat[self.order], np.arange(M.n + 1)).tolist()
        self.slices = [slice(a, b) for a, b in zip(starts, starts[1:])]

    def at(self, x) -> tuple[float, np.ndarray]:
        """(p(x), grad p(x)) from one pass; ``pre[j]`` is the product of the
        first j factors ``xs[j]`` of every basis (``pre[r]``, the monomials)."""
        xs = x[self.cols.T]
        pre = np.empty((self.r + 1, len(self.cols)))
        pre[0] = 1.0
        for j in range(self.r):
            np.multiply(pre[j], xs[j], out=pre[j + 1])
        value = math.fsum(memoryview(pre[-1]))
        # the term omitting factor j is the product of the factors before
        # it, then times each factor after it, in ascending order
        terms = pre[:-1]
        for j in range(1, self.r):
            terms[:j] *= xs[j]
        flat = memoryview(terms.ravel().take(self.order))
        return value, np.array([math.fsum(flat[s]) for s in self.slices])


def _checked_point(M: Matroid, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (M.n,):
        raise MatroidError(f"weight vector has length {x.size}, need {M.n}")
    return x


def poly_eval(M: Matroid, x) -> float:
    """p(x): compensated sum of the basis monomials."""
    return _BasisPolynomial(M).at(_checked_point(M, x))[0]


def poly_gradient(M: Matroid, x) -> np.ndarray:
    """Partial derivatives dp/dx_i = sum over bases through i of the
    complementary monomials."""
    return _BasisPolynomial(M).at(_checked_point(M, x))[1]


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


def _fixed_point_run(poly: _BasisPolynomial, x0, tol, max_iter):
    """One multiplicative-iteration run; returns (value, x, iters, converged)."""
    x = np.array(x0, dtype=float)
    x[x < FREEZE_EPS] = 0.0
    s = x.sum()
    if s <= 0:
        return 0.0, x, 0, False
    x /= s
    value, grad = poly.at(x)
    for it in range(1, max_iter + 1):
        if value <= 0:
            return value, x, it, False
        x = x * grad / (poly.r * value)
        x[x < FREEZE_EPS] = 0.0
        total = x.sum()
        if total <= 0:
            return value, x, it, False
        x /= total
        new_value, grad = poly.at(x)
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
    if not tol >= 0:
        raise MatroidError(f"tolerance {tol} is negative or NaN")
    if max_iter < 0:
        raise MatroidError(f"iteration budget {max_iter} is negative")
    if restarts < 0:
        raise MatroidError(f"restart count {restarts} is negative")
    if M.r == 0:
        raise MatroidError("rank-0 matroid: every element is a loop")
    exact_bound = None if bound_t is None else u2_lagrangian_bound(M.r, bound_t)
    simple, reps = simplify(M)
    rng = np.random.default_rng(seed)
    starts = [np.full(simple.n, 1.0 / simple.n)]
    for _ in range(restarts):
        raw = rng.exponential(size=simple.n)
        starts.append(raw / raw.sum())

    poly = _BasisPolynomial(simple)
    outcomes = [_fixed_point_run(poly, x0, tol, max_iter) for x0 in starts]

    best_idx = max(range(len(outcomes)), key=lambda i: (outcomes[i][0], -i))
    value, x_simple, iterations, converged = outcomes[best_idx]

    argmax = np.zeros(M.n)
    for i, rep in enumerate(reps):
        argmax[rep] = x_simple[i]
    value = poly_eval(M, argmax)

    bound = None
    certified = False
    bound_applies = True
    if exact_bound is not None:
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
