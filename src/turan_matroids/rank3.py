"""Structural machinery for rank-3 matroids: greedy line decompositions,
the two-lines-or-no-long-line-minor classifier, and exact line covers.

The decomposition follows the constructive argument behind the structure
theorems: greedily strip high-population lines, then verify every claimed
conclusion on the leftover set directly.  A certificate failure would
falsify the underlying theorem, so it raises TheoremViolation rather than
returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb

from .bitsets import bit_indices
from .geometry import lines_of
from .matroid import Matroid, MatroidError, TheoremViolation, is_simple, restrict
from .minors import has_uniform_minor, has_uniform_restriction


@dataclass(frozen=True)
class Rank3Decomposition:
    k: int
    lines: tuple
    leftover: int
    certificate: dict = field(compare=False)


def _threshold(m: int, i: int, parity: str, bump: int = 0) -> int:
    if parity == "odd":
        return comb(2 * (m - i) + 1, 2) + 2 + bump
    return comb(2 * (m - i) + 2, 2) + 2 + bump


def _certificate_checks(M: Matroid, m: int, k: int, leftover: int, parity: str) -> dict:
    """The theorem's conclusions about the leftover set, checked directly."""
    mk = m - k
    checks = {}
    y_count = leftover.bit_count()
    if parity == "odd":
        forbid_t = 2 * mk + 1
        point_cap = comb(2 * mk, 2) * (comb(2 * mk, 2) - 1) + 2 * mk
    else:
        forbid_t = 2 * mk + 2
        point_cap = comb(2 * mk + 1, 2) * (comb(2 * mk + 1, 2) - 1) + 2 * mk + 1
    line_cap = comb(2 * mk, 2) + 2  # no U(2, cap)-restriction
    if leftover:
        Y = restrict(M, leftover)
        if k < m:
            checks["no_free_rank3_restriction"] = not has_uniform_restriction(Y, 3, forbid_t)[0]
        checks["no_long_line_restriction"] = (
            Y.r < 2 or not has_uniform_restriction(Y, 2, line_cap)[0]
        )
        checks["point_cap"] = y_count <= point_cap
    else:
        checks["point_cap"] = True
    return checks


def decompose_rank3(M: Matroid, m: int, parity: str) -> Rank3Decomposition:
    """Split E into k <= m greedily chosen lines plus a verified leftover.

    Requires a simple rank-3 matroid with no free rank-3 restriction on
    2m+1 (odd) or 2m+2 (even) elements.  Lines are stripped while one with
    at least the parity threshold many points exists in what remains; the
    leftover then has to satisfy the structure theorem's conclusions, which
    are recorded in the certificate.  The even-case threshold is a working
    constant, so failures there retry with slightly larger thresholds
    before escalating.
    """
    if parity not in ("odd", "even"):
        raise MatroidError("parity must be 'odd' or 'even'")
    if M.r != 3:
        raise MatroidError("rank-3 matroid required")
    if not is_simple(M):
        raise MatroidError("simple matroid required")
    if m < 2:
        raise MatroidError("need m >= 2")
    forbid = 2 * m + 1 if parity == "odd" else 2 * m + 2
    if has_uniform_restriction(M, 3, forbid)[0]:
        raise MatroidError(f"matroid has a free rank-3 restriction on {forbid} elements")

    # M is simple, so the lines of M|remaining are the traces ln & remaining
    # that keep at least two points; every threshold is above two
    all_lines = lines_of(M)
    bumps = (0,) if parity == "odd" else (0, 1, 2, 3)
    last_failure = None
    for bump in bumps:
        remaining = M.full_mask
        lines = []
        for i in range(1, m + 1):
            need = _threshold(m, i, parity, bump)
            candidates = {
                ln & remaining for ln in all_lines if (ln & remaining).bit_count() >= need
            }
            if not candidates:
                break
            best = max(candidates, key=lambda ln: (ln.bit_count(), -ln))
            lines.append(best)
            remaining &= ~best
        k = len(lines)
        checks = _certificate_checks(M, m, k, remaining, parity)
        if all(checks.values()):
            return Rank3Decomposition(k, tuple(lines), remaining, checks)
        last_failure = (bump, checks)
    raise TheoremViolation(
        f"decomposition certificate failed (parity={parity}, m={m}): {last_failure}"
    )


@dataclass(frozen=True)
class NoU25Minor:
    """Every line minor of the matroid has at most 4 points."""


@dataclass(frozen=True)
class TwoLines:
    line1: int
    line2: int


def classify_u35_free(M: Matroid):
    """Dichotomy for simple rank-3 matroids with no 5-point free restriction:
    either the ground set is covered by two lines, or there is no 5-point
    line minor.  Returns TwoLines or NoU25Minor; a matroid fitting neither
    branch would falsify the dichotomy and raises TheoremViolation.
    """
    if M.r != 3:
        raise MatroidError("rank-3 matroid required")
    if not is_simple(M):
        raise MatroidError("simple matroid required")
    if has_uniform_restriction(M, 3, 5)[0]:
        raise MatroidError("matroid has a free restriction on 5 elements")

    lines = lines_of(M)
    full = M.full_mask
    for l1, l2 in permutations(lines, 2):
        if (l1 & ~l2).bit_count() >= 4 and (l2 & ~l1).bit_count() >= 2:
            if (l1 | l2) != full:
                raise TheoremViolation("good line pair does not cover the ground set")
            return TwoLines(l1, l2)
    for l1, l2 in combinations(lines, 2):
        if (l1 | l2) == full:
            return TwoLines(l1, l2)
    if has_uniform_minor(M, 2, 5)[0]:
        raise TheoremViolation("no two-line cover, yet a 5-point line minor exists")
    return NoU25Minor()


def line_cover_number(M: Matroid) -> int:
    """Exact minimum number of rank-<=2 sets covering the ground set.

    Branch and bound over maximal lines: branch on an uncovered element,
    trying each line through it; bound by ceil(uncovered / largest line).
    """
    if M.r < 2:
        raise MatroidError("rank >= 2 required")
    if M.n > 30:
        raise MatroidError("ground set too large for the exact cover search")
    lines = lines_of(M)
    full = M.full_mask
    max_line = max(ln.bit_count() for ln in lines)
    through = {e: [ln for ln in lines if ln >> e & 1] for e in range(M.n)}

    best = [len(lines) + 1]

    def bound(uncovered: int) -> int:
        return (uncovered.bit_count() + max_line - 1) // max_line

    def dfs(uncovered: int, used: int):
        if not uncovered:
            best[0] = min(best[0], used)
            return
        if used + bound(uncovered) >= best[0]:
            return
        e = min(bit_indices(uncovered), key=lambda x: len(through[x]))
        for ln in through[e]:
            dfs(uncovered & ~ln, used + 1)

    dfs(full, 0)
    return best[0]
