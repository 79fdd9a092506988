"""Canonical labeling of basis families under ground-set permutations.

The canonical form is the lexicographically smallest sorted tuple of
relabeled basis masks over all n! relabelings.  Labels are assigned from
the highest bit position downward.  A member with k unassigned elements
ends with k distinct low labels, which sum to at least 2^k - 1, so adding
that to each member's partial mask gives a pointwise lower bound on every
completion's key, and a branch whose sorted bound already reaches the
incumbent can be pruned.  Children are visited in ascending bound order.

Twins are pruned.  Call e and f twins when the transposition (e f) maps
the family onto itself; this is an equivalence relation, since
(e g) = (e f)(f g)(e f).  If e and f are twins and both unassigned, the
transposition fixes every assigned element, so it maps the completions
that give e the current label one-to-one onto those that give it to f,
and both sets of completions yield the same keys.  Each level therefore
expands only the first unassigned member of each twin class.  Other ties
among children are partial symmetries and are still all explored, which
is why callers should deduplicate isomorphic inputs first (see
are_isomorphic).
"""

from __future__ import annotations


def _twin_classes(n: int, bases) -> list:
    """For each element e, the least element of its twin class, the class
    of the elements f for which swapping e and f maps ``bases`` onto
    itself."""
    family = set(bases)
    twin_of = list(range(n))
    for f in range(n):
        for e in range(f):
            if twin_of[e] != e:
                continue  # test f against class representatives only
            pair = 1 << e | 1 << f
            if all(b ^ pair in family for b in family if (b & pair).bit_count() == 1):
                twin_of[f] = e
                break
    return twin_of


def canonical_bases(n: int, bases) -> tuple:
    """Minimum sorted tuple of masks over all relabelings of {0..n-1}."""
    bases = sorted(set(bases))
    if n <= 1 or (len(bases) == 1 and bases[0].bit_count() in (0, n)):
        return tuple(bases)

    twin_of = _twin_classes(n, bases)
    best = [tuple(bases)]  # identity labeling as the starting incumbent
    highs0 = [0] * len(bases)

    def dfs(level, highs, remaining):
        if level < 0:
            key = tuple(sorted(highs))
            if key < best[0]:
                best[0] = key
            return
        bit = 1 << level
        unassigned = sum(1 << x for x in remaining)
        scored = []
        classes = set()
        for e in remaining:
            if twin_of[e] in classes:
                continue  # an earlier twin's subtree yields the same keys
            classes.add(twin_of[e])
            child = [h | bit if b >> e & 1 else h for h, b in zip(highs, bases)]
            rest = unassigned ^ 1 << e
            bound = tuple(sorted(h + (1 << (b & rest).bit_count()) - 1
                                 for h, b in zip(child, bases)))
            scored.append((bound, e, child))
        scored.sort(key=lambda item: (item[0], item[1]))
        for bound, e, child in scored:
            if bound >= best[0]:
                break  # completions are pointwise >= bound, hence >= best
            dfs(level - 1, child, [x for x in remaining if x != e])

    dfs(n - 1, highs0, list(range(n)))
    return best[0]


def _independent_sets(family) -> set:
    """Every subset of every member of ``family``, as masks."""
    out = {0}
    for b in family:
        sub = b
        while sub:
            out.add(sub)
            sub = (sub - 1) & b  # the next smaller subset of b
    return out


def are_isomorphic(n: int, bases_a, bases_b) -> bool:
    """Is there a relabeling of {0..n-1} mapping one basis family onto the other?

    Both families must be uniform, as every basis family is; then their
    members are their maximal independent sets (subsets of members), so a
    bijection maps A onto B exactly when it preserves independence.  The
    map is extended one element k at a time, carrying each independent S
    of A inside the mapped prefix with its image.  An image c of k is
    accepted only if, for every carried S, S + k is independent in A
    exactly when image(S) + c is in B.  A dependent S has only dependent
    supersets on both sides, so by induction over the prefix every subset
    of it is checked, and a complete map is an isomorphism.
    """
    fam_a, fam_b = sorted(set(bases_a)), sorted(set(bases_b))
    if len(fam_a) != len(fam_b):
        return False
    if fam_a == fam_b:
        return True
    deg_a, deg_b = ([sum(b >> e & 1 for b in fam) for e in range(n)] for fam in (fam_a, fam_b))
    if sorted(deg_a) != sorted(deg_b):
        return False
    ind_a, ind_b = _independent_sets(fam_a), _independent_sets(fam_b)
    used = [False] * n

    def assign(k, pairs):
        if k == n:
            return True
        bit = 1 << k
        for cand in range(n):
            if used[cand] or deg_b[cand] != deg_a[k]:
                continue
            cbit = 1 << cand
            grown = []
            for s, t in pairs:
                independent = s | bit in ind_a
                if independent != (t | cbit in ind_b):
                    break
                if independent:
                    grown.append((s | bit, t | cbit))
            else:
                used[cand] = True
                if assign(k + 1, pairs + grown):
                    return True
                used[cand] = False
        return False

    return assign(0, [(0, 0)])


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
