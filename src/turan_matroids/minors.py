"""Uniform-minor and uniform-restriction detection, plus small matroid counting.

A rank-r matroid has a U(s, t)-minor exactly when its basis hypergraph
contains the (s, t) daisy: contract the stem, restrict to the petal set.
The daisy route is the fast detector; ``uniform_minor_oracle`` is the
independent brute-force check used to validate it.  After the contraction
the petal set is a U(s, t)-restriction, so the daisy's per-stem search and
the restriction search are one search, ``hypergraphs.least_petal_set``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitsets import bit_indices, mask_of, subsets_of_size
from .canonical import canonical_bases
from .hypergraphs import basis_hypergraph, has_daisy, least_petal_set
from .matroid import Matroid, MatroidError, rank_of, validate_exchange


@dataclass(frozen=True)
class MinorWitness:
    """Stem to contract and t-set to restrict to; disjoint masks."""

    contracted: int
    selected: int


def has_uniform_minor(M: Matroid, s: int, t: int):
    """Does M have a rank-s uniform minor on t elements?

    Returns (found, MinorWitness or None).  s above the rank of M is
    answered False: no minor has rank larger than M.
    """
    if s < 1 or t < s:
        raise MatroidError("need 1 <= s <= t")
    if s > M.r:
        return False, None
    found, witness = has_daisy(basis_hypergraph(M), s, t)
    if not found:
        return False, None
    stem, petals = witness
    return True, MinorWitness(stem, petals)


def uniform_minor_oracle(M: Matroid, s: int, t: int) -> bool:
    """Brute force: try every independent contraction set of size r-s and
    every t-subset of the rest, checking all s-subsets directly by rank."""
    if s < 1 or t < s:
        raise MatroidError("need 1 <= s <= t")
    if s > M.r:
        return False
    d = M.r - s
    for cset in combinations(range(M.n), d):
        c = mask_of(cset)
        if rank_of(M, c) != d:
            continue
        rest = [e for e in range(M.n) if not c & (1 << e)]
        for tset in combinations(rest, t):
            if all(rank_of(M, c | mask_of(x)) == M.r for x in combinations(tset, s)):
                return True
    return False


def has_uniform_restriction(M: Matroid, s: int, t: int):
    """Is there a t-set T with M|T uniform of rank s?

    Yes when every s-subset of T lies in a basis and no (s+1)-subset does;
    both families are read off the bases once, and ``least_petal_set``
    finds T.  Returns (found, T mask or None); T is least by ascending
    element lists.
    """
    if s < 0 or t < s:
        raise MatroidError("need 0 <= s <= t")
    if s > M.r or t > M.n:
        return False, None
    if s == M.r:
        independent, too_big = set(M.bases), set()
    else:
        independent, too_big = set(), set()
        for b in M.bases:
            independent.update(subsets_of_size(b, s))
            too_big.update(subsets_of_size(b, s + 1))
    got = least_petal_set(M.full_mask, s, t, independent, too_big)
    return got is not None, got


def count_matroids(n: int, r: int, up_to_iso: bool = False) -> int:
    """Number of labeled rank-r basis families on [n] (nonempty, exchange-valid).

    Cost is 2^C(n, r); refuses anything beyond 2^20 candidate families.
    With up_to_iso, counts relabeling classes instead (n <= 5).
    """
    subsets = [mask_of(c) for c in combinations(range(n), r)]
    m = len(subsets)
    if m > 20:
        raise MatroidError(f"budget exceeded: 2^{m} candidate families")
    if up_to_iso and n > 5:
        raise MatroidError("isomorphism reduction supported only for n <= 5")

    count = 0
    seen = set()
    for pick in range(1, 1 << m):
        family = [subsets[i] for i in bit_indices(pick)]
        if validate_exchange(n, family):
            if up_to_iso:
                seen.add(canonical_bases(n, family))
            else:
                count += 1
    return len(seen) if up_to_iso else count

