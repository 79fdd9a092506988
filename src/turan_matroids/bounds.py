"""Exact rational evaluators for the closed-form counts and bounds.

Everything here is exact Fraction arithmetic; floating point appears only
in the Lagrangian optimizer.  b(r, t) below denotes the basis count of the
rank-r projective geometry over a t-element field (well-defined as a
rational expression for every integer t >= 2).
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import factorial

from .fields import is_prime_power
from .matroid import MatroidError


def projective_basis_count(r: int, t: int) -> Fraction:
    """b(r, t) = prod_{i<r} (t^r - t^i) / (r! (t-1)^r)."""
    if r < 1 or t < 2:
        raise MatroidError("need r >= 1 and t >= 2")
    num = 1
    for i in range(r):
        num *= t**r - t**i
    return Fraction(num, factorial(r) * (t - 1) ** r)


def kung_point_bound(r: int, t: int) -> int:
    """Maximum point count of a simple rank-r matroid with no (t+2)-point line minor."""
    if r < 1 or t < 2:
        raise MatroidError("need r >= 1 and t >= 2")
    return (t**r - 1) // (t - 1)


def u2_max_bases_bound(n: int, r: int, t: int) -> Fraction:
    """Upper bound b(r,t) (n(t-1)/(t^r-1))^r on bases without a U(2,t+2)-minor."""
    if n < r:
        raise MatroidError("need n >= r")
    return projective_basis_count(r, t) * Fraction(n * (t - 1), t**r - 1) ** r


def u2_lagrangian_bound(r: int, t: int) -> Fraction:
    """Exact bound b(r,t) ((t-1)/(t^r-1))^r on the Lagrangian of any rank-r
    matroid with no U(2,t+2)-minor."""
    if r < 1 or t < 2:
        raise MatroidError("need r >= 1 and t >= 2")
    return projective_basis_count(r, t) * Fraction(t - 1, t**r - 1) ** r


def u2_density(r: int, q: int) -> Fraction:
    """Limiting basis density without a U(2,q+2)-minor: prod (1 - (q^i-1)/(q^r-1))."""
    if r < 2 or q < 2:
        raise MatroidError("need r >= 2 and q >= 2")
    value = Fraction(1)
    for i in range(1, r):
        value *= 1 - Fraction(q**i - 1, q**r - 1)
    return value


def u2_density_from_count(r: int, q: int) -> Fraction:
    """The same density written as r! b(r,q) ((q-1)/(q^r-1))^r."""
    return projective_basis_count(r, q) * Fraction(q - 1, q**r - 1) ** r * factorial(r)


def euler_product_interval(q: int, eps: Fraction = Fraction(1, 10**12)):
    """Certified enclosure [lo, hi] of prod_{i>=1} (1 - q^-i).

    Truncating after k factors overshoots the limit; the tail is bounded by
    sum_{i>k} q^-i = q^-k/(q-1), so partial * (1 - q^-k/(q-1)) is a valid
    lower bound.  k grows until the width is below eps.
    """
    if q < 2:
        raise MatroidError("need q >= 2")
    eps = Fraction(eps)
    partial = Fraction(1)
    k = 0
    while True:
        k += 1
        partial *= 1 - Fraction(1, q**k)
        tail = Fraction(1, q**k * (q - 1))
        lo = partial * (1 - tail)
        if partial - lo <= eps or k > 200:
            return lo, partial


def gen_binom2(x: Fraction) -> Fraction:
    """x(x-1)/2 for rational x (binomial coefficient extended to rationals)."""
    x = Fraction(x)
    return x * (x - 1) / 2


def ex_u1(n: int, r: int, t: int) -> Fraction:
    """(t-1)^r, the maximum basis count with no U(1,t)-minor."""
    if n < r or r < 1 or t < 2:
        raise MatroidError("need n >= r >= 1 and t >= 2")
    return Fraction((t - 1) ** r)


def ex_u23(n: int, r: int) -> Fraction:
    """(n/r)^r, the maximum basis count with no U(2,3)-minor (tight when r | n)."""
    if not n >= r >= 2:
        raise MatroidError("need n >= r >= 2")
    return Fraction(n, r) ** r


def pi_u34(r: int) -> Fraction:
    """Limiting density without a U(3,4)-minor: r! 2^floor(r/2) / r^r."""
    if r < 3:
        raise MatroidError("need r >= 3")
    return Fraction(factorial(r) * 2 ** (r // 2), r**r)


def ex_u34_even(n: int, r: int) -> Fraction:
    """C(2n/r, 2)^(r/2) for even r; tight for balanced rank-2 direct sums."""
    if r < 2 or r % 2:
        raise MatroidError("even rank required")
    if n < r:
        raise MatroidError("need n >= r")
    return gen_binom2(Fraction(2 * n, r)) ** (r // 2)


def ex_u34_odd_leading(n: int, r: int) -> Fraction:
    """(n/r) C(2n/r, 2)^((r-1)/2): the exact count of the odd-rank extremal
    construction (a rank-1 class plus balanced rank-2 summands)."""
    if r < 3 or r % 2 == 0:
        raise MatroidError("odd rank required")
    if n < r:
        raise MatroidError("need n >= r")
    return Fraction(n, r) * gen_binom2(Fraction(2 * n, r)) ** ((r - 1) // 2)


def ex_u35(n: int) -> Fraction:
    """(n/2)^3 - (n/2)^2: maximum rank-3 basis count with no 5-point free
    restriction, attained by two disjoint lines; exact for even n >= 14.
    The exhaustive rank-3 search attains it at n = 6 and 8 as well."""
    if n % 2:
        raise MatroidError("even n required")
    if n < 2:
        raise MatroidError("need n >= 2")
    half = Fraction(n, 2)
    return half**3 - half**2


def pi_u35() -> Fraction:
    return Fraction(3, 4)


def rank3_lower_odd(m: int) -> Fraction:
    """1 - 1/m^2: density lower bound from m disjoint long lines (no U(3,2m+1))."""
    if m < 2:
        raise MatroidError("need m >= 2")
    return 1 - Fraction(1, m * m)


def rank3_lower_even(m: int) -> Fraction:
    """4m^4/(2m^2+1)^2: density lower bound from m lines plus a parallel class."""
    if m < 2:
        raise MatroidError("need m >= 2")
    return Fraction(4 * m**4, (2 * m * m + 1) ** 2)


def largest_prime_power_leq(t: int) -> int:
    if t < 2:
        raise MatroidError("need t >= 2")
    for q in range(t, 1, -1):
        if is_prime_power(q):
            return q
    raise MatroidError("unreachable")


THETA = Fraction(525, 1000)  # prime-gap exponent 0.525


def prime_band(r: int, t: int, c: Fraction = Fraction(1)):
    """Heuristic density band for U(2,t+2)-free matroids at non-prime-power t.

    Returns (lower, upper, q) with q the largest prime power <= t; lower is
    the exact density at q and upper adds a heuristic width C r! / t^(2-0.525)
    with configurable constant C >= 0 (the true constant is only known to
    exist).
    The rational width uses a truncated-from-below value of t^1.475 so the
    band is conservative.
    """
    if r < 2 or t < 2:
        raise MatroidError("need r >= 2 and t >= 2")
    if c < 0:
        raise MatroidError(f"need c >= 0, got {c}: a negative width puts upper below lower")
    q = largest_prime_power_leq(t)
    lower = u2_density(r, q)
    scale = 1 << 40
    t_pow = Fraction(int(t ** float(2 - THETA) * scale), scale)
    upper = lower + Fraction(c) * factorial(r) / t_pow
    return lower, upper, q


# Every ``bounds`` selector of the command line, with the evaluator it runs.
# An evaluator's parameters are the selector's parameters; all but
# euler_product and prime_band return one Fraction.
CLOSED_FORMS = {
    "b": projective_basis_count,
    "kung": lambda r, t: Fraction(kung_point_bound(r, t)),
    "ex_upper_u2": u2_max_bases_bound,
    "density_u2": u2_density,
    "lagrangian_u2": u2_lagrangian_bound,
    "euler_product": lambda q: euler_product_interval(q),
    "prime_band": prime_band,
    "ex_u1": ex_u1,
    "ex_u23": ex_u23,
    "pi_u34": pi_u34,
    "ex_u34_even": ex_u34_even,
    "ex_u34_odd_leading": ex_u34_odd_leading,
    "ex_u35": ex_u35,
    "pi_u35": pi_u35,
    "rank3_lower_odd": rank3_lower_odd,
    "rank3_lower_even": rank3_lower_even,
}


def closed_form(selector: str, **params):
    """Evaluate ``selector`` with ``params`` bound to its evaluator's
    parameters; a missing or unused parameter is a MatroidError."""
    if selector not in CLOSED_FORMS:
        raise MatroidError(f"unknown selector {selector!r}; choose from {sorted(CLOSED_FORMS)}")
    evaluator = CLOSED_FORMS[selector]
    signature = inspect.signature(evaluator)
    try:
        signature.bind(**params)
    except TypeError:
        names = ", ".join(
            name if p.default is p.empty else f"[{name}]"
            for name, p in signature.parameters.items()
        )
        raise MatroidError(
            f"selector {selector!r} takes {names or 'no parameters'};"
            f" got {', '.join(params) or 'none'}"
        ) from None
    return evaluator(**params)
