"""Canonical labeling of basis families under ground-set permutations.

The canonical form is the lexicographically smallest sorted tuple of
relabeled basis masks over all n! relabelings.  Labels are assigned from
the highest bit position downward.  A member with k unassigned elements
ends with k distinct low labels, which sum to at least 2^k - 1, so adding
that to each member's partial mask gives a pointwise lower bound on every
completion's key, and a branch whose sorted bound already reaches the
incumbent can be pruned.  Children are visited in ascending bound order.

Symmetric children are pruned.  Let A be the set of assigned elements and
Stab(A) the automorphisms of the family F that fix every member of A.
Each g in Stab(A) maps the completions that give e the current label
one-to-one onto those that give it to g(e), with the same keys, so each
level expands only the least unassigned element of each orbit of Stab(A).

The orbits come from Aut(F) modulo twins.  Call e and f twins when the
transposition (e f) maps F onto itself; this is an equivalence relation,
since (e g) = (e f)(f g)(e f).  The twin group T, the product of the
symmetric groups on the twin classes, is normal in Aut(F), because
g (e f) g^-1 = (g(e) g(f)) is again a twin transposition; so every
automorphism maps twin classes onto twin classes of the same size.  Each
coset of T holds exactly one automorphism that maps every class onto its
image class in increasing order, and R, the list of these, is enumerated
once per call.  Let R_A be the members h of R with h(a) a twin of a for
every a in A.  Then Stab(A) moves an unassigned e onto exactly the
unassigned members of the classes of h(e), h in R_A:

- every g in Stab(A) is t h with t in T and h in R; then h(a) = t^-1(a) is
  a twin of a, so h is in R_A, and g(e) = t(h(e)) lies in h(e)'s class;
- conversely, for h in R_A, h maps the assigned members of each class into
  that class, so some t in T maps h(a) back to a for every a in A and
  sends h(e), the image of no assigned element, to any chosen unassigned
  member of its class; then t h is in Stab(A).

The class maps of R_A are those of Stab(A), which form a group, so the
orbit of e's class is already the set of its images under R_A and needs
no closure.  The identity is in R, so unassigned twins always share an
orbit; on a family whose automorphisms are all in T, such as a uniform
matroid, R is the identity alone and the rule is plain twin pruning.  The
DFS narrows R_A by one filter per assigned element.
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


def _independent_sets(family) -> set:
    """Every subset of every member of ``family``, as masks."""
    out = {0}
    for b in family:
        sub = b
        while sub:
            out.add(sub)
            sub = (sub - 1) & b  # the next smaller subset of b
    return out


def _isomorphisms(n: int, ind_a, ind_b, choices):
    """Yield, as tuples of images, the bijections of {0..n-1} that map the
    independent sets ``ind_a`` onto ``ind_b``.

    The map is extended one element k at a time, over the unused images
    among ``choices(k, image)``, where ``image`` lists the images of 0..k-1,
    and carries each independent S of A inside the mapped prefix with its
    image.  An image c of k is accepted only if, for every carried S, S + k
    is independent in A exactly when image(S) + c is in B.  A dependent S
    has only dependent supersets on both sides, so by induction over the
    prefix every subset of it is checked, and a complete map preserves
    independence.
    """
    image = []
    used = [False] * n

    def extend(k, pairs):
        if k == n:
            yield tuple(image)
            return
        bit = 1 << k
        for cand in choices(k, image):
            if used[cand]:
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
                image.append(cand)
                yield from extend(k + 1, pairs + grown)
                image.pop()
                used[cand] = False

    return extend(0, [(0, 0)])


def _automorphisms_mod_twins(n: int, bases, twin_of) -> list:
    """R: the automorphisms of the uniform family ``bases`` that map every
    twin class onto a twin class in increasing order, one per coset of the
    twin group.  The least member of a class goes to the least member of a
    class of the same size and degree, and the i-th member follows it to
    the i-th member of that class."""
    degree = [sum(b >> e & 1 for b in bases) for e in range(n)]
    members = {}
    for e in range(n):
        members.setdefault(twin_of[e], []).append(e)
    targets = {
        c: [d for d in members if len(members[d]) == len(members[c]) and degree[d] == degree[c]]
        for c in members
    }
    if all(targets[c] == [c] for c in members):
        return [tuple(range(n))]  # every class maps onto itself: R is the identity

    def choices(k, image):
        c = twin_of[k]
        if c == k:
            return targets[c]
        return (members[image[c]][members[c].index(k)],)

    ind = _independent_sets(bases)
    return list(_isomorphisms(n, ind, ind, choices))


def canonical_bases(n: int, bases) -> tuple:
    """Minimum sorted tuple of masks over all relabelings of {0..n-1}.

    ``bases`` must be uniform (all members the same size), as every basis
    family is: its automorphisms are found as the bijections that preserve
    independence, which on other families may not map them onto themselves.
    """
    bases = sorted(set(bases))
    if len({b.bit_count() for b in bases}) > 1:
        raise ValueError("canonical_bases needs a uniform family (members of one size)")
    if n <= 1 or (len(bases) == 1 and bases[0].bit_count() in (0, n)):
        return tuple(bases)

    twin_of = _twin_classes(n, bases)
    best = [tuple(bases)]  # identity labeling as the starting incumbent
    highs0 = [0] * len(bases)

    def dfs(level, highs, remaining, autos):
        if level < 0:
            key = tuple(sorted(highs))
            if key < best[0]:
                best[0] = key
            return
        bit = 1 << level
        unassigned = sum(1 << x for x in remaining)
        scored = []
        seen = set()
        for e in remaining:
            if twin_of[e] in seen:
                continue  # a lesser element of e's orbit yields the same keys
            seen.update(auto[twin_of[e]] for auto in autos)
            child = [h | bit if b >> e & 1 else h for h, b in zip(highs, bases)]
            rest = unassigned ^ 1 << e
            bound = tuple(sorted(h + (1 << (b & rest).bit_count()) - 1
                                 for h, b in zip(child, bases)))
            scored.append((bound, e, child))
        scored.sort(key=lambda item: (item[0], item[1]))
        for bound, e, child in scored:
            if bound >= best[0]:
                break  # completions are pointwise >= bound, hence >= best
            c = twin_of[e]
            dfs(level - 1, child, [x for x in remaining if x != e],
                [auto for auto in autos if auto[c] == c])

    dfs(n - 1, highs0, list(range(n)), _automorphisms_mod_twins(n, bases, twin_of))
    return best[0]


def are_isomorphic(n: int, bases_a, bases_b) -> bool:
    """Is there a relabeling of {0..n-1} mapping one basis family onto the other?

    Both families must be uniform, as every basis family is; then their
    members are their maximal independent sets (subsets of members), so a
    bijection maps A onto B exactly when it preserves independence.
    """
    fam_a, fam_b = sorted(set(bases_a)), sorted(set(bases_b))
    if len(fam_a) != len(fam_b):
        return False
    if fam_a == fam_b:
        return True
    deg_a, deg_b = ([sum(b >> e & 1 for b in fam) for e in range(n)] for fam in (fam_a, fam_b))
    if sorted(deg_a) != sorted(deg_b):
        return False

    same_degree = [[c for c in range(n) if deg_b[c] == deg_a[k]] for k in range(n)]
    maps = _isomorphisms(
        n, _independent_sets(fam_a), _independent_sets(fam_b), lambda k, image: same_degree[k]
    )
    return next(maps, None) is not None


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
