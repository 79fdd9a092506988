"""Canonical labeling of basis families under ground-set permutations.

The canonical form is the lexicographically smallest sorted tuple of
relabeled basis masks over all n! relabelings.  Labels are assigned from
the highest bit position downward; zero-filling the unassigned low bits of
a partial relabeling gives a pointwise lower bound on every completion's
key, so a branch whose zero-filled key already reaches the incumbent can
be pruned.  Children are visited in ascending bound order.  Ties among
children are partial symmetries and must all be explored, which is why
callers should deduplicate isomorphic inputs first (see are_isomorphic);
for the mildly symmetric witnesses handled here (n <= 10) the search is
quick.
"""

from __future__ import annotations


def canonical_bases(n: int, bases) -> tuple:
    """Minimum sorted tuple of masks over all relabelings of {0..n-1}."""
    bases = sorted(set(bases))
    if n <= 1 or (len(bases) == 1 and bases[0].bit_count() in (0, n)):
        return tuple(bases)

    best = [tuple(bases)]  # identity labeling as the starting incumbent
    highs0 = [0] * len(bases)

    def dfs(level, highs, remaining):
        if level < 0:
            key = tuple(sorted(highs))
            if key < best[0]:
                best[0] = key
            return
        bit = 1 << level
        scored = []
        for e in remaining:
            child = [h | bit if b >> e & 1 else h for h, b in zip(highs, bases)]
            scored.append((tuple(sorted(child)), e, child))
        scored.sort(key=lambda item: (item[0], item[1]))
        for bound, e, child in scored:
            if bound >= best[0]:
                break  # completions are pointwise >= bound, hence >= best
            dfs(level - 1, child, [x for x in remaining if x != e])

    dfs(n - 1, highs0, list(range(n)))
    return best[0]


def are_isomorphic(n: int, bases_a, bases_b) -> bool:
    """Is there a relabeling of {0..n-1} mapping one basis family onto the other?

    Backtracking on the element map with degree pruning; complete bases
    inside the mapped prefix must land on bases.  Much cheaper than two
    canonical forms when the families are in fact isomorphic.
    """
    fam_a = sorted(set(bases_a))
    fam_b = sorted(set(bases_b))
    if len(fam_a) != len(fam_b):
        return False
    if fam_a == fam_b:
        return True
    set_b = set(fam_b)

    def degrees(family):
        out = [0] * n
        for b in family:
            for e in range(n):
                if b >> e & 1:
                    out[e] += 1
        return out

    deg_a, deg_b = degrees(fam_a), degrees(fam_b)
    if sorted(deg_a) != sorted(deg_b):
        return False

    image = [-1] * n
    used = [False] * n

    def check_prefix(k):
        # bases of A fully inside the assigned prefix must map into B
        assigned = sum(1 << i for i in range(k + 1))
        for b in fam_a:
            if b & ~assigned:
                continue
            mapped = 0
            for e in range(k + 1):
                if b >> e & 1:
                    mapped |= 1 << image[e]
            if mapped not in set_b:
                return False
        return True

    def assign(k):
        if k == n:
            return True
        for cand in range(n):
            if used[cand] or deg_b[cand] != deg_a[k]:
                continue
            image[k] = cand
            used[cand] = True
            if check_prefix(k) and assign(k + 1):
                return True
            used[cand] = False
        image[k] = -1
        return False

    return assign(0)


CANONICAL_SIZE_LIMIT = 10


def dedupe_isomorphic(n: int, families, cap: int | None = None):
    """Canonical forms of pairwise non-isomorphic representatives.

    Families are scanned in order; ones isomorphic to an already-kept
    representative are dropped before the (more expensive) canonical
    labeling runs.  Returns sorted canonical keys.  Above the supported
    labeling size the representatives are returned un-relabeled (scan
    order is fixed, so the result is still deterministic).
    """
    reps = []
    for fam in families:
        if cap is not None and len(reps) >= cap:
            break
        fam = tuple(sorted(set(fam)))
        if any(are_isomorphic(n, fam, kept) for kept in reps):
            continue
        reps.append(fam)
    if n > CANONICAL_SIZE_LIMIT:
        return sorted(reps)
    return sorted(canonical_bases(n, fam) for fam in reps)
