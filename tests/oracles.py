"""Slow reference implementations that only the tests use.

Each one is the direct, unpruned form of a fast path in the package, kept
so that the fast path can be checked against it.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, fsum

import numpy as np

from turan_matroids.bitsets import bit_indices, mask_of, subsets_of_size
from turan_matroids.canonical import dedupe_isomorphic
from turan_matroids.extremal import (
    SPLIT_DEPTH,
    SearchOptions,
    SearchReport,
    best_known_construction,
)
from turan_matroids.geometry import lines_of, rank3_from_lines, rank3_multiline, uniform
from turan_matroids.matroid import (
    MAX_GROUND_SET,
    Matroid,
    MatroidError,
    closure,
    delete,
    exchange_violation,
    loops_mask,
    parallel_blowup,
    rank_of,
    validate_exchange,
)
from turan_matroids.minors import has_uniform_minor, has_uniform_restriction


def projective_basis_count_recursive(r: int, t: int) -> Fraction:
    """b(r, t) through the recursion b(r) = b(r-1) t^{r-1} (t^r - 1) / (r (t-1))."""
    if r < 1 or t < 2:
        raise MatroidError("need r >= 1 and t >= 2")
    value = Fraction(1)
    for j in range(2, r + 1):
        value = value * t ** (j - 1) * (t**j - 1) / (j * (t - 1))
    return value


def exchange_violation_oracle(n: int, family):
    """First witness that ``family`` is not a basis family, or None.

    Returns ("size", B1, B2) on a cardinality mismatch, ("range", B, None)
    for a member not inside {0..n-1}, and ("exchange", B1, B2, x) when no
    y in B2-B1 repairs the removal of x from B1.  Scan order is fixed
    (sorted masks) so the reported witness is deterministic.
    """
    members = sorted(set(family))
    if not members:
        raise MatroidError("basis family must be nonempty")
    full = (1 << n) - 1 if n else 0
    r = members[0].bit_count()
    for b in members:
        if b & ~full:
            return ("range", b, None)
        if b.bit_count() != r:
            return ("size", members[0], b)
    family_set = set(members)
    for b1 in members:
        for b2 in members:
            if b1 == b2:
                continue
            for x in bit_indices(b1 & ~b2):
                removed = b1 & ~(1 << x)
                if not any(removed | (1 << y) in family_set for y in bit_indices(b2 & ~b1)):
                    return ("exchange", b1, b2, x)
    return None


def grid_search_2simplex(M: Matroid, resolution: int = 1000) -> float:
    """Reference maximizer for 3-element matroids: scan the lattice grid
    {(i, j, res-i-j)/res} on the simplex and return the best value found."""
    if M.n != 3:
        raise MatroidError("grid oracle is for 3-element ground sets")
    i, j = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
    valid = i + j <= resolution
    coords = [
        i[valid] / resolution,
        j[valid] / resolution,
        (resolution - i - j)[valid] / resolution,
    ]
    total = np.zeros(coords[0].shape)
    for b in M.bases:
        prod = np.ones(coords[0].shape)
        for e in bit_indices(b):
            prod = prod * coords[e]
        total += prod
    return float(total.max())


def line_cover_oracle(M: Matroid) -> int:
    """Unpruned reference: try all line subsets by increasing size."""
    lines = lines_of(M)
    full = M.full_mask
    for k in range(1, len(lines) + 1):
        for combo in combinations(lines, k):
            u = 0
            for ln in combo:
                u |= ln
            if u == full:
                return k
    raise MatroidError("lines do not cover the ground set")


def multiline_with_blowup(line_sizes, parallel_class: int) -> Matroid:
    """Same matroid as rank3_multiline, built as a one-point blow-up.

    Used as an independent cross-check of the direct enumeration: the
    parallel class is realized by blowing up a single extra point.
    """
    sizes = list(line_sizes)
    if parallel_class == 0:
        return rank3_multiline(sizes, 0, simple_lines=False)
    p = sum(sizes) + 1
    lines = []
    offset = 0
    for s in sizes:
        if s >= 3:
            lines.append(mask_of(range(offset, offset + s)))
        offset += s
    simple = rank3_from_lines(p, lines)
    return parallel_blowup(simple, [1] * (p - 1) + [parallel_class])


def matroidal_local_diagnostic(H) -> bool:
    """Check matroidality through induced subgraphs on at most 2k vertices.

    Edgeless induced subgraphs are vacuously fine; they arise from every
    hypergraph and forbid nothing.  Intended for small v only.
    """
    if not H.edges:
        raise MatroidError("empty edge set")
    limit = min(H.v, 2 * H.k)
    for size in range(H.k, limit + 1):
        for combo in combinations(range(H.v), size):
            w = mask_of(combo)
            inside = [e for e in H.edges if e & w == e]
            if inside and not validate_exchange(H.v, inside):
                return False
    return True


def _grow_complete_subset(link, vertices, s, t, forced=()):
    """Lexicographically least t-set T over ``vertices`` (ascending), T
    containing ``forced``, with every s-subset of T in ``link``.  None if
    there is none."""
    forced = sorted(forced)
    for a, b in zip(forced, forced[1:]):
        if a == b:
            return None
    if len(forced) > t:
        return None
    need_deg = comb(t - 1, s - 1)
    degree = {u: 0 for u in vertices}
    for e in link:
        for u in bit_indices(e):
            if u in degree:
                degree[u] += 1
    candidates = [u for u in vertices if u not in set(forced) and degree[u] >= need_deg]

    def compatible(chosen, u):
        if len(chosen) < s - 1:
            return True
        for ys in combinations(chosen, s - 1):
            if mask_of(ys + (u,)) not in link:
                return False
        return True

    for x in forced:
        if degree.get(x, 0) < need_deg:
            return None
        others = [y for y in forced if y != x]
        if not compatible(others, x):
            return None

    def dfs(chosen, start):
        if len(chosen) == t:
            return tuple(sorted(chosen))
        for idx in range(start, len(candidates)):
            if len(chosen) + (len(candidates) - idx) < t:
                break
            u = candidates[idx]
            if compatible(chosen, u):
                got = dfs(chosen + [u], idx + 1)
                if got is not None:
                    return got
        return None

    return dfs(sorted(forced), 0)


def daisy_completed_by_edge_oracle(edges_set, k: int, s: int, t: int, new_edge: int) -> bool:
    """Would adding ``new_edge`` to ``edges_set`` create an (s, t) daisy?

    Only daisies using ``new_edge`` must be checked; presence of a daisy is
    monotone under edge insertion.  ``edges_set`` must already contain
    new_edge.
    """
    d = k - s
    for stem in subsets_of_size(new_edge, d):
        link = {e & ~stem for e in edges_set if e & stem == stem}
        if len(link) < comb(t, s):
            continue
        support = sorted({u for e in link for u in bit_indices(e)})
        forced = tuple(bit_indices(new_edge & ~stem))
        if _grow_complete_subset(link, support, s, t, forced=forced) is not None:
            return True
    return False


def closure_oracle(M: Matroid, X: int) -> int:
    """Maximal superset of X with the same rank, one rank query per element."""
    rx = rank_of(M, X)
    out = X
    for e in range(M.n):
        bit = 1 << e
        if not X & bit and rank_of(M, X | bit) == rx:
            out |= bit
    return out


def flats_oracle(M: Matroid, k: int):
    """``matroid.flats`` unpruned: the closure of every independent k-set,
    deduplicated and sorted."""
    independent = (S for S in subsets_of_size(M.full_mask, k) if rank_of(M, S) == k)
    return sorted({closure_oracle(M, S) for S in independent})


def simplify_oracle(M: Matroid):
    """``matroid.simplify`` by pairwise tests: non-loops e and f are
    parallel when no basis contains both.  Returns (simple matroid,
    representatives), the smallest member of each class in increasing
    order."""
    loops = loops_mask(M)
    unassigned = [e for e in range(M.n) if not loops >> e & 1]
    classes = []
    while unassigned:
        rep = unassigned[0]
        cls = [rep] + [
            f for f in unassigned[1:] if not any(b >> rep & 1 and b >> f & 1 for b in M.bases)
        ]
        classes.append(cls)
        unassigned = [f for f in unassigned if f not in cls]
    label = {e: i for i, cls in enumerate(classes) for e in cls}
    seen = {mask_of(label[e] for e in bit_indices(b)) for b in M.bases}
    simple = Matroid.from_bases(len(classes), sorted(seen), validate=False)
    return simple, tuple(cls[0] for cls in classes)


def restrict_oracle(M: Matroid, X: int) -> Matroid:
    """Restriction M|X: delete everything outside X (coloop rule applies)."""
    out = M
    for e in sorted(bit_indices(M.full_mask & ~X), reverse=True):
        out = delete(out, e)
    return out


def circuits(M: Matroid):
    """All minimal dependent sets, sorted by (size, mask), found by a rank
    query on every subset of at most r + 1 elements."""
    found = []
    for k in range(1, M.r + 2):
        for combo in combinations(range(M.n), k):
            x = mask_of(combo)
            if any(c & x == c for c in found):
                continue
            if rank_of(M, x) < k:
                found.append(x)
    return sorted(found, key=lambda c: (c.bit_count(), c))


def connected_components_oracle(M: Matroid):
    """Masks of the connected components, sorted: elements are merged
    whenever some circuit holds both."""
    comps = [1 << e for e in range(M.n)]
    for circuit in circuits(M):
        joined = [c for c in comps if c & circuit]
        comps = [c for c in comps if not c & circuit] + [sum(joined)]
    return sorted(comps)


def has_uniform_restriction_oracle(M: Matroid, s: int, t: int):
    """Is there a t-set T with M|T uniform of rank s?

    Every s-subset of T must be independent and T itself must have rank s,
    both checked by rank queries.  Returns (found, T mask or None); T is
    lexicographically least.
    """
    if s < 0 or t < s:
        raise MatroidError("need 0 <= s <= t")
    if s > M.r or t > M.n:
        return False, None

    def dfs(chosen, start):
        if len(chosen) == t:
            if rank_of(M, mask_of(chosen)) == s:
                return tuple(chosen)
            return None
        for e in range(start, M.n):
            if M.n - e < t - len(chosen):
                break
            ok = True
            if s >= 1 and len(chosen) >= s - 1:
                for sub in combinations(chosen, s - 1):
                    if rank_of(M, mask_of(sub + (e,))) != s:
                        ok = False
                        break
            if ok and rank_of(M, mask_of(chosen + [e])) > s:
                ok = False
            if ok:
                got = dfs(chosen + [e], e + 1)
                if got is not None:
                    return got
        return None

    got = dfs([], 0)
    if got is None:
        return False, None
    return True, mask_of(got)


def _complete_extension(link, chosen, faces, candidates, need, s):
    """Lexicographically least set made of the set ``chosen`` plus
    ``need`` members of ``candidates`` (ascending) whose s-subsets are all
    in ``link``, as a mask; None if there is none.  ``chosen`` is a mask
    whose s-subsets are all in ``link``, and ``faces`` lists its
    (s-1)-subsets as masks."""
    if need == 0:
        return chosen
    for idx in range(len(candidates) - need + 1):
        bit = 1 << candidates[idx]
        if link.issuperset([f | bit for f in faces]):
            grown = chosen | bit
            if need == 1:
                return grown
            got = _complete_extension(
                link,
                grown,
                tuple(subsets_of_size(grown, s - 1)),
                candidates[idx + 1 :],
                need - 1,
                s,
            )
            if got is not None:
                return got
    return None


def _candidate_stems(H, d: int, min_edges: int):
    """d-subsets contained in at least min_edges edges, ascending."""
    if d == 0:
        return [0] if len(H.edges) >= min_edges else []
    counts = {}
    for e in H.edges:
        for sub in subsets_of_size(e, d):
            counts[sub] = counts.get(sub, 0) + 1
    return sorted(s for s, c in counts.items() if c >= min_edges)


def has_daisy_oracle(H, s: int, t: int):
    """Does H contain the daisy with petal parameters (s, t)?

    Counts the frequent (k-s)-subsets of edges first, then rebuilds each
    candidate stem's link by a scan of all edges.  Returns (found,
    (stem_mask, petal_vertex_mask) or None), lexicographically least.
    """
    if not 1 <= s <= H.k or t < s:
        raise MatroidError("need 1 <= s <= k and t >= s")
    d = H.k - s
    min_degree = comb(t - 1, s - 1)
    for stem in _candidate_stems(H, d, comb(t, s)):
        link = {e & ~stem for e in H.edges if e & stem == stem}
        degree = Counter(u for e in link for u in bit_indices(e))
        candidates = sorted(u for u, c in degree.items() if c >= min_degree)
        got = _complete_extension(link, 0, tuple(subsets_of_size(0, s - 1)), candidates, t, s)
        if got is not None:
            return True, (stem, got)
    return False, None


def least_petal_set_oracle(vertices: int, s: int, t: int, inside, outside=()):
    """The first t-subset of ``vertices`` in lexicographic order whose
    s-subsets all lie in ``inside`` and none of whose (s+1)-subsets lies in
    ``outside``, as a mask; None if there is none."""
    inside, outside = set(inside), set(outside)
    for petals in map(mask_of, combinations(bit_indices(vertices), t)):
        if all(x in inside for x in subsets_of_size(petals, s)) and not any(
            y in outside for y in subsets_of_size(petals, s + 1)
        ):
            return petals
    return None


def poly_eval_oracle(M: Matroid, x) -> float:
    """p(x), one basis and one factor at a time."""
    x = np.asarray(x, dtype=float)
    terms = []
    for b in M.bases:
        prod = 1.0
        for i in bit_indices(b):
            prod *= x[i]
        terms.append(prod)
    return fsum(terms)


def poly_gradient_oracle(M: Matroid, x) -> np.ndarray:
    """dp/dx_i, one basis through i and one complementary factor at a time."""
    x = np.asarray(x, dtype=float)
    per_coord = [[] for _ in range(M.n)]
    for b in M.bases:
        elems = list(bit_indices(b))
        for i in elems:
            prod = 1.0
            for j in elems:
                if j != i:
                    prod *= x[j]
            per_coord[i].append(prod)
    return np.array([fsum(terms) for terms in per_coord])


class OraclePolynomial:
    """Stands in for ``lagrangian._BasisPolynomial`` with the loop bodies
    above, so that ``maximize`` can be driven by them."""

    def __init__(self, M: Matroid):
        self.M = M
        self.r = M.r

    def at(self, x) -> "OraclePoint":
        return OraclePoint(self.M, x)


class OraclePoint:
    """Stands in for ``lagrangian._Point``: p at x, and dp at x on request."""

    def __init__(self, M: Matroid, x):
        self.M = M
        self.x = np.array(x, dtype=float)
        self.value = poly_eval_oracle(M, self.x)

    def gradient(self) -> np.ndarray:
        return poly_gradient_oracle(self.M, self.x)


def lines_of_oracle(M: Matroid):
    """All lines: the closure of every pair of rank 2."""
    seen = set()
    for e, f in combinations(range(M.n), 2):
        pair = (1 << e) | (1 << f)
        if rank_of(M, pair) == 2:
            seen.add(closure(M, pair))
    return sorted(seen)


def are_isomorphic_oracle(n: int, bases_a, bases_b) -> bool:
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


def canonical_bases_oracle(n: int, bases) -> tuple:
    """``canonical.canonical_bases`` without symmetry pruning: every child
    of every level is expanded unless its bound reaches the incumbent."""
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


def automorphism_count_oracle(n: int, bases) -> int:
    """The number of permutations of {0..n-1} that map ``bases`` onto
    itself, by trying all n! of them."""
    family = set(bases)
    count = 0
    for perm in permutations(range(n)):
        if all(mask_of(perm[e] for e in bit_indices(b)) in family for b in family):
            count += 1
    return count


def witness_matroids(n: int, families, cap: int) -> tuple:
    """The search reports' witnesses: matroids on [n] with the canonical
    bases of at most ``cap`` pairwise non-isomorphic ``families``."""
    return tuple(
        Matroid.from_bases(n, key, validate=False)
        for key in dedupe_isomorphic(n, families, cap=cap)
    )


def search_ex_rank3_oracle(n: int, s: int, t: int, opts: SearchOptions | None = None) -> SearchReport:
    """``extremal.search_ex_rank3`` as it was before it read minor-freeness
    off the line family: every node builds its simple matroid with
    ``rank3_from_lines`` and asks ``has_uniform_restriction`` (s = 3) or
    ``has_uniform_minor`` (s = 2).  Same DFS, budget and report."""
    opts = opts or SearchOptions()
    if s not in (2, 3):
        raise MatroidError("rank-3 backend supports forbidding U(2,t) or U(3,t)")
    if t < s:
        raise MatroidError("need t >= s")
    if s == 3 and t == 3:
        raise MatroidError("every rank-3 matroid has a U(3,3)-minor")
    if n < 3:
        raise MatroidError("rank 3 needs n >= 3")

    budget = opts.max_nodes
    nodes = 0
    pruned_forbidden = 0
    best = 0
    champions = []
    exhausted = False
    p_cap = min(n, opts.rank3_point_cap)

    def blowup_optimum(simple: Matroid):
        """Exact max of the blow-up basis count over multiplicities >= 1
        summing to n, with one optimal vector."""
        p = simple.n
        base_elems = [list(bit_indices(b)) for b in simple.bases]
        best_val, best_mult = -1, None

        def rec(i, left, mult):
            nonlocal best_val, best_mult
            if i == p - 1:
                full = mult + [left]
                val = 0
                for elems in base_elems:
                    prod = 1
                    for e in elems:
                        prod *= full[e]
                    val += prod
                if val > best_val:
                    best_val, best_mult = val, list(full)
                return
            for m_i in range(1, left - (p - 1 - i) + 1):
                rec(i + 1, left - m_i, mult + [m_i])

        rec(0, n, [])
        return best_val, best_mult

    # only s = 3 inherits freeness from the parent; s = 2 is tested at every
    # node, so the search's carrying of U(2,t)-freeness is checked against it
    free_monotone = s == 3

    for p in range(3, p_cap + 1):
        if exhausted:
            break
        candidates = []
        for k in range(3, p + 1):
            for combo in combinations(range(p), k):
                candidates.append(mask_of(combo))
        candidates.sort()

        def process(family, parent_free):
            """(alive, free): alive=False prunes extensions (rank collapse
            is permanent under adding lines)."""
            nonlocal nodes, best, champions, pruned_forbidden, exhausted
            if nodes >= budget:
                exhausted = True
                return False, False
            nodes += 1
            try:
                simple = rank3_from_lines(p, family)
            except MatroidError:
                return False, False  # all triples collinear: rank below 3
            if parent_free and free_monotone:
                free = True
            elif s == 3:
                free = not has_uniform_restriction(simple, 3, t)[0]
            else:
                free = not has_uniform_minor(simple, 2, t)[0]
            if not free:
                pruned_forbidden += 1
                return True, False
            val, mult = blowup_optimum(simple)
            if val > best:
                best = val
                champions = []
            if val == best and len(champions) < opts.witness_cap:
                champions.append(parallel_blowup(simple, mult).bases)
            return True, True

        def dfs(start, family, parent_free):
            alive, free = process(tuple(family), parent_free)
            if not alive or exhausted:
                return
            for i in range(start, len(candidates)):
                ln = candidates[i]
                if all((ln & other).bit_count() <= 1 for other in family):
                    family.append(ln)
                    dfs(i + 1, family, free)
                    family.pop()
                    if exhausted:
                        return

        dfs(0, [], False)

    exhaustive = (p_cap >= n) and not exhausted
    witnesses = witness_matroids(n, champions, opts.witness_cap)
    return SearchReport(
        n, 3, s, t, best, witnesses, nodes, pruned_forbidden, 0, exhaustive
    )


def arc_oracle(through, t: int) -> int:
    """An arc of size t, t points with no three on one long line, as a
    point mask, or 0 when there is none: a nonzero result is a
    U(3, t)-restriction of the simple rank-3 matroid.

    A DFS adds points in increasing order; a new point e blocks the rest of
    every long line through e that already holds a chosen point.  The arc
    returned is the first one this order finds.
    """

    def grow(chosen: int, size: int, left: int) -> int:
        if size == t:
            return chosen
        while size + left.bit_count() >= t:
            bit = left & -left
            left ^= bit
            blocked = 0
            for ln in through[bit.bit_length() - 1]:
                if ln & chosen:
                    blocked |= ln
            arc = grow(chosen | bit, size + 1, left & ~blocked)
            if arc:
                return arc
        return 0

    return grow(0, 0, (1 << len(through)) - 1)


def fan_oracle(through, t: int) -> int:
    """A fan of size t, a point e and one point on each of t lines through
    e, 2-point lines included, as a mask of those t + 1 points, or 0 when
    there is none: a nonzero result is a U(2, t)-minor of the simple rank-3
    matroid, since contracting e leaves the lines through e as its parallel
    classes.

    Point e lies on the long lines ``through[e]`` and on one 2-point line
    per point on none of them.  The fan returned is the first e in
    increasing order with at least t lines, with the lowest other point of
    each long line, keeping the t lowest of those points.  The walk adds
    lines in increasing mask order, so low points keep the fan longest.
    """
    full = (1 << len(through)) - 1
    for e, lines in enumerate(through):
        bit = 1 << e
        fan = full & ~bit
        for ln in lines:
            rest = ln & ~bit
            fan = fan & ~rest | rest & -rest
        if fan.bit_count() >= t:
            while fan.bit_count() > t:
                fan ^= 1 << fan.bit_length() - 1
            return fan | bit
    return 0


def exchange_witness_refutes(family, witness) -> bool:
    """True when the ("exchange", B1, B2, x) ``witness`` shows that the set
    ``family`` is not a basis family; False says nothing either way.

    The witness refutes ``family`` when B1 is in it, B2 is in it and no
    y in B2 - B1 has B1 - x + y in it.  Since x is in B1 and not in B2
    (exchange_violation takes x from D, which B2 avoids), axiom (B1) then
    fails for (B1, B2, x): a genuine violation, whatever produced the
    witness.  Any other witness kind, or an x outside B1 - B2, is an error.
    """
    if witness[0] != "exchange":
        raise MatroidError(f"not an exchange witness: {witness[0]!r}")
    _, b1, b2, x = witness
    bit = 1 << x
    if not b1 & bit or b2 & bit:
        raise MatroidError(f"exchange witness element {x} is not in B1 - B2")
    if b1 not in family or b2 not in family:
        return False
    removed = b1 ^ bit
    return not any(removed | 1 << y in family for y in bit_indices(b2 & ~b1))


class SetStemLinks:
    """The link of every (k - s)-set (stem) in a family of k-subsets of
    [n] that gains and loses one edge at a time, for (s, t) daisy checks.

    ``link[stem]`` is {e - stem : stem a subset of e in the family}, and
    ``degree[stem][u]`` counts the members of that link containing u.
    ``push`` and ``pop`` keep both current, so ``set_daisy_completed_by_edge``
    reads a stem's link and degrees instead of rebuilding them from the
    family.  For every k-subset of [n], ``petals`` lists, per stem inside
    it in lexicographic order, that stem's link and degrees and the rest
    of the edge (the petal) as a mask, as vertices and as its
    (s-1)-subsets: C(n, k) * C(k, s) entries, built once.
    """

    def __init__(self, n: int, k: int, s: int, t: int):
        if not 1 <= s <= k or t < s:
            raise MatroidError("need 1 <= s <= k and t >= s")
        self.n, self.s, self.t = n, s, t
        self.min_link = comb(t, s)
        self.min_degree = comb(t - 1, s - 1)
        self.link = {mask_of(c): set() for c in combinations(range(n), k - s)}
        self.degree = {stem: [0] * n for stem in self.link}
        self.petals = {}
        for c in combinations(range(n), k):
            edge = mask_of(c)
            self.petals[edge] = tuple(
                (
                    self.link[stem],
                    self.degree[stem],
                    edge ^ stem,
                    tuple(bit_indices(edge ^ stem)),
                    tuple(subsets_of_size(edge ^ stem, s - 1)),
                )
                for stem in subsets_of_size(edge, k - s)
            )

    def push(self, edge: int) -> None:
        for link, degree, petal, vertices, _ in self.petals[edge]:
            link.add(petal)
            for u in vertices:
                degree[u] += 1

    def pop(self, edge: int) -> None:
        for link, degree, petal, vertices, _ in self.petals[edge]:
            link.remove(petal)
            for u in vertices:
                degree[u] -= 1


def set_daisy_completed_by_edge(links: SetStemLinks, new_edge: int) -> bool:
    """Does the family held in ``links`` contain an (s, t) daisy through
    ``new_edge``?

    ``new_edge`` must already be pushed.  When the family without it has
    no daisy, this says whether adding it created one: daisy presence is
    monotone under edge insertion, so only daisies using ``new_edge``
    need checking.  For each stem inside ``new_edge``, the petal set must
    contain the rest of ``new_edge`` (the forced petal) and is completed
    from vertices of link degree at least C(t-1, s-1).
    """
    n, s, min_degree = links.n, links.s, links.min_degree
    for link, degree, petal, forced, faces in links.petals[new_edge]:
        if len(link) < links.min_link:
            continue
        if min([degree[x] for x in forced]) < min_degree:
            continue
        candidates = [u for u in range(n) if degree[u] >= min_degree and not petal >> u & 1]
        if _complete_extension(link, petal, faces, candidates, links.t - s, s) is not None:
            return True
    return False


def _subtree_search_oracle(edges, n, r, s, t, prefix_bits, depth, threshold, budget, cap):
    """The generic search's DFS of one prefix subtree over a list of chosen
    edges, a ``SetStemLinks`` state built per subtree, and a set-based
    re-check of the last exchange witness; returns
    (best, witness_families, nodes, pruned_daisy, pruned_bound, exhausted)."""
    m = len(edges)
    nodes = 0
    pruned_daisy = 0
    pruned_bound = 0
    exhausted = False
    chosen = []
    links = SetStemLinks(n, r, s, t)
    for i in range(depth):
        if prefix_bits >> i & 1:
            e = edges[i]
            chosen.append(e)
            links.push(e)
            if set_daisy_completed_by_edge(links, e):
                return (threshold, [], 1, 1, 0, False)
    best = threshold
    witnesses = []
    refuter = None  # the last exchange witness found in this subtree

    def leaf():
        nonlocal best, witnesses, refuter
        if not chosen:
            return
        count = len(chosen)
        if count < best:
            return
        family = set(chosen)
        if refuter is not None and exchange_witness_refutes(family, refuter):
            return
        violation = exchange_violation(n, family)
        if violation is not None:
            refuter = violation
            return
        if count > best:
            best = count
            witnesses = []
        if len(witnesses) < cap:
            witnesses.append(tuple(sorted(chosen)))

    def dfs(idx):
        nonlocal nodes, pruned_daisy, pruned_bound, exhausted
        if exhausted:
            return
        if nodes >= budget:
            exhausted = True
            return
        nodes += 1
        if idx == m:
            leaf()
            return
        if len(chosen) + (m - idx) < best:
            pruned_bound += 1
            return
        e = edges[idx]
        chosen.append(e)
        links.push(e)
        if set_daisy_completed_by_edge(links, e):
            pruned_daisy += 1
        else:
            dfs(idx + 1)
        chosen.pop()
        links.pop(e)
        dfs(idx + 1)

    dfs(depth)
    return (best, witnesses, nodes, pruned_daisy, pruned_bound, exhausted)


def search_ex_oracle(n: int, r: int, s: int, t: int, opts: SearchOptions | None = None) -> SearchReport:
    """``extremal.search_ex`` over set-based state: the same DFS, prefix
    subtrees, budget and report, with each subtree holding its chosen
    family as a list of masks and every stem's link as a set."""
    opts = opts or SearchOptions()
    if not (1 <= s <= t):
        raise MatroidError("need 1 <= s <= t")
    if not (0 < r <= n):
        raise MatroidError("need 0 < r <= n")
    if n > MAX_GROUND_SET:
        raise MatroidError("ground set too large")
    edges = [mask_of(c) for c in combinations(range(n), r)]
    m = len(edges)
    if s > r:
        # no rank-s minor exists; the unrestricted maximum is the uniform matroid
        witnesses = witness_matroids(n, [uniform(r, n).bases], opts.witness_cap)
        return SearchReport(n, r, s, t, m, witnesses, 1, 0, 0, True)
    seed = best_known_construction(n, r, s, t)
    threshold = seed.basis_count if seed is not None else 0

    depth = min(SPLIT_DEPTH, m)
    left = opts.max_nodes
    results = []
    for prefix in range(1 << depth):
        if left <= 0:
            break
        res = _subtree_search_oracle(
            edges, n, r, s, t, prefix, depth, threshold, left, opts.witness_cap
        )
        results.append(res)
        left -= res[2]
    exhaustive = len(results) == 1 << depth and not any(res[5] for res in results)

    max_bases = max((res[0] for res in results), default=threshold)
    nodes = sum(res[2] for res in results)
    pruned_daisy = sum(res[3] for res in results)
    pruned_bound = sum(res[4] for res in results)
    families = []
    for res in results:
        families.extend(fam for fam in res[1] if len(fam) == max_bases)
    if not families and seed is not None and seed.basis_count == max_bases:
        families = [seed.bases]
    witnesses = witness_matroids(n, families, opts.witness_cap)
    return SearchReport(
        n, r, s, t, max_bases, witnesses, nodes, pruned_daisy, pruned_bound, exhaustive
    )
