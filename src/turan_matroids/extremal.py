"""Exhaustive extremal search: exact maximum basis counts under a
forbidden uniform minor, binary subset maximization, and truncation probes.

The generic backend walks all subsets of the r-subsets of [n] in fixed
lexicographic order, depth first in one loop (``_subtree_search``),
pruning branches that (a) already contain the forbidden daisy (daisy
presence is monotone under edge insertion) or (b) cannot reach the
incumbent count, a test made once per node in that loop.  The chosen
family is one int over edge indices, and it is the walk's only family
state.  Edges are decided in increasing order, so an edge is tested only
against chosen edges below it, and any daisy it completes has it as its
highest edge; the test reads the family against that edge's row of
``hypergraphs.DaisyRows``, built on the edge's first test.  The exchange
property is *not* prefix-monotone, so it is tested only on completed
families.  Consecutive leaves differ only in their last-decided edges,
so a leaf first re-checks the last exchange witness found in its
subtree, as two edge-index masks (``_witness_masks``), and gets the full
check only when that witness no longer refutes it.  A subtree that can
change nothing, because that witness refutes every leaf in it and no
stem lies in C(t, s) of the edges it may still choose
(``DaisyRows.stars``), is counted in closed form (``_bound_tree``)
instead of walked; the node counts and the budget are those of the full
walk.  The tree is split at a fixed depth into subtrees that run in
fixed order under one node budget, each getting whatever its
predecessors left unspent, so results and counters are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .bitsets import bit_indices, mask_of
from .canonical import dedupe_isomorphic
from .fields import is_prime_power
from .bounds import largest_prime_power_leq
from .geometry import (
    bose_burton,
    projective_geometry,
    rank3_from_lines,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from .hypergraphs import DaisyRows, daisy_completed_by_edge
from .matroid import (
    MAX_GROUND_SET,
    Matroid,
    MatroidError,
    direct_sum,
    exchange_violation,
    parallel_blowup,
    restrict,
    truncate,
    validate_exchange,
)
from .minors import has_uniform_minor, uniform_minor_oracle

DEFAULT_MAX_NODES = 20_000_000
SPLIT_DEPTH = 4  # the generic search runs 2**SPLIT_DEPTH prefix subtrees


@dataclass(frozen=True)
class SearchOptions:
    max_nodes: int = DEFAULT_MAX_NODES
    witness_cap: int = 16
    rank3_point_cap: int = 7

    def __post_init__(self):
        if self.max_nodes < 0:
            raise MatroidError(f"node budget {self.max_nodes} is negative")
        if self.witness_cap < 0:
            raise MatroidError(f"witness cap {self.witness_cap} is negative")
        if self.rank3_point_cap < 3:
            raise MatroidError(f"rank-3 point cap {self.rank3_point_cap} is below 3")


@dataclass(frozen=True)
class SearchReport:
    n: int
    r: int
    s: int
    t: int
    max_bases: int
    witnesses: tuple
    nodes_explored: int
    pruned_daisy: int
    pruned_bound: int
    exhaustive: bool
    bose_burton_attains: bool | None = None


def _with_loops(M: Matroid, total: int) -> Matroid:
    if M.n == total:
        return M
    return direct_sum(M, uniform(0, total - M.n))


def _balanced_parts(n: int, parts: int):
    base, extra = divmod(n, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def _candidate_constructions(n: int, r: int, s: int, t: int):
    """Catalog of plausible extremal constructions at these parameters."""
    out = []
    if r == 0 or n < r:
        return out
    free = uniform(r, r)
    if s == 1 and t >= 2:
        # r parallel classes of size at most t-1, leftovers become loops;
        # every matroid of rank r >= 1 has a U(1, 1)-minor, so t = 1 has none
        sizes = [1] * r
        budget = n - r
        for i in range(r):
            grow = min(t - 2, budget)
            sizes[i] += grow
            budget -= grow
        out.append(_with_loops(parallel_blowup(free, sizes), n))
    if s == 2:
        out.append(parallel_blowup(free, _balanced_parts(n, r)))
        if t >= 4:
            q = largest_prime_power_leq(t - 2)
            points = (q**r - 1) // (q - 1)
            if points <= n:
                pg = projective_geometry(r, q)
                out.append(parallel_blowup(pg, _balanced_parts(n, points)))
    if s == 3 and t == 4:
        pieces = []
        if r % 2 == 0:
            sizes = _balanced_parts(n, r // 2)
            pieces = [uniform(2, sz) for sz in sizes]
        else:
            rank1 = max(1, round(n / r))
            rest = n - rank1
            if r > 1 and rest >= r - 1:
                sizes = _balanced_parts(rest, (r - 1) // 2)
                pieces = [uniform(1, rank1)] + [uniform(2, sz) for sz in sizes]
            elif r == 1:
                pieces = [uniform(1, n)]
        if pieces:
            M = pieces[0]
            for piece in pieces[1:]:
                M = direct_sum(M, piece)
            out.append(M)
    if s == 3 and r == 3 and t >= 5:
        m = (t - 1) // 2
        if n >= 2 * m:
            if t % 2:  # forbid U(3, 2m+1): m balanced long lines
                sizes = _balanced_parts(n, m)
                if all(sz >= 3 for sz in sizes):
                    out.append(rank3_multiline(sizes, 0))
            if t == 5 and n >= 4:
                out.append(two_disjoint_lines(n // 2, n - n // 2))
    return out


def best_known_construction(n: int, r: int, s: int, t: int):
    """Best verified minor-free construction from the catalog, or None."""
    best = None
    for cand in _candidate_constructions(n, r, s, t):
        if cand.n != n or cand.r != r:
            continue
        if has_uniform_minor(cand, s, t)[0]:
            continue
        if best is None or cand.basis_count > best.basis_count:
            best = cand
    return best


def _witness_masks(witness, index):
    """The ("exchange", B1, B2, x) ``witness`` as two masks over edge
    indices (``index`` maps an edge to its index): ``need`` holds B1 and
    B2, and ``repair`` holds B1 - x + y for each y in B2 - B1.

    A family ``fam`` (a mask over edge indices) is refuted by the witness
    when ``fam & need == need and not fam & repair``: B1 and B2 are in it
    and no y in B2 - B1 repairs the removal of x from B1, so axiom (B1)
    fails for (B1, B2, x).
    """
    _, b1, b2, x = witness
    removed = b1 & ~(1 << x)
    need = 1 << index[b1] | 1 << index[b2]
    repair = 0
    for y in bit_indices(b2 & ~b1):
        repair |= 1 << index[removed | 1 << y]
    return need, repair


def _sparse_gates(rows, threshold):
    """Where the generic search tests that no daisy can complete below a
    node, and what the chosen family must miss for the test to pass.

    At the node that decides edge idx, ``upper`` is the chosen family and
    every edge from idx on.  The test passes when every stem lies in
    fewer than k = C(t, s) edges of ``upper`` (``rows.stars``).  Returns
    (ceiling, forbid), each indexed by idx:

    - ceiling[idx] is the most edges ``upper`` may hold, or -1 where the
      test is skipped.  Each edge lies in C(r, s) stars, so more than
      (k - 1) * #stems / C(r, s) edges fill some star.  The test is
      skipped while the edges from idx on alone fill a star, and where
      fewer than three edges are left: such a subtree has at most seven
      nodes, and testing there costs more than it saves on searches where
      the test seldom passes.  Every node the bound keeps holds at least
      the incumbent's count in ``upper``, so a ceiling below the catalog
      seed skips all tests.
    - forbid[idx] is the union of the stars that hold exactly k - 1 of
      the edges from idx on; the chosen family must miss them.
    """
    m, k = len(rows.edges), comb(rows.t, rows.s)
    dense = (k - 1) * comb(rows.n, rows.k - rows.s) // comb(rows.k, rows.s)
    ceiling, forbid = [-1] * m, [0] * m
    if dense < threshold:
        return ceiling, forbid
    first, spans = 0, []
    for star in rows.stars.values():
        # drop the k - 1 highest edges; fewer than k are left from idx on
        # exactly when idx >= top.bit_length()
        top = star
        for _ in range(min(k - 1, star.bit_count())):
            top ^= 1 << top.bit_length() - 1
        first = max(first, top.bit_length())
        highest = star ^ top
        if k > 1 and highest.bit_count() == k - 1:
            spans.append((top.bit_length(), (highest & -highest).bit_length() - 1, star))
    last = m - 3
    for i in range(first, last + 1):
        ceiling[i] = dense
    for lo, hi, star in spans:
        for i in range(max(lo, first), min(hi, last) + 1):
            forbid[i] |= star
    return ceiling, forbid


def _bound_tree(rows, q: int, slack: int):
    """(nodes, pruned_bound) of the walk below a node with ``q`` edges
    left to decide and ``slack`` = count + q - best >= -1, when every
    include is allowed and no leaf is accepted: a node with slack < 0 and
    q > 0 is pruned by the bound, and otherwise its include child keeps
    the slack and its exclude child has one less.

    ``rows[q]`` holds the pairs for slack -1..q; slack above q prunes
    nothing more than slack q.  Rows are appended as far as ``q`` needs."""
    while len(rows) <= q:
        p = len(rows)
        if not p:
            rows.append([(1, 0), (1, 0)])
            continue
        prev = rows[-1]
        row = [(1, 1)]
        for k in range(p + 1):
            inc, exc = prev[min(k, p - 1) + 1], prev[k]
            row.append((inc[0] + exc[0] + 1, inc[1] + exc[1]))
        rows.append(row)
    return rows[q][min(slack, q) + 1]


def _subtree_search(rows, gates, prefix_bits, depth, threshold, budget, cap):
    """Walk one fixed prefix of include/exclude decisions depth first in
    one loop, counting at most ``budget`` >= 1 nodes; returns
    (best, witness_families, nodes, pruned_daisy, pruned_bound, exhausted).

    A node is (idx, fam, count): the edge to decide, the chosen family as a
    mask over indices into ``rows.edges``, and its size.  The prefix loop
    and the walk both test an edge against chosen edges of lower index
    only, which is the precondition of the rows: any daisy that edge idx
    completes has idx as its highest edge, so it is in row idx
    (``DaisyRows``), and the test reads ``fam`` against that row alone.
    When a subtree is done, the walk drops the highest chosen edge at or
    above ``depth``, its last include, and goes on to that node's exclude
    child.  The walk's one bound test prunes a node with edges left that
    cannot reach the incumbent even by taking all of them.

    A leaf that could match the incumbent is rejected at once when the
    last ("exchange", B1, B2, x) witness returned by ``exchange_violation``
    in this subtree still refutes it (``_witness_masks``).  Otherwise it
    gets the full check, and a violation found there becomes the new
    witness.  A leaf is accepted only by the full check and rejected only
    by a re-verified violation.

    A node whose subtree is already decided is counted, not walked.  Let
    ``upper`` be its chosen edges and the undecided ones; every family
    below lies between the chosen edges and ``upper``.  When the witness
    refutes each of them (B1 and B2 chosen, no repair in ``upper``) and
    every stem lies in fewer than C(t, s) edges of ``upper``, so that no
    daisy test below can succeed, nothing below changes the incumbent,
    the witness or the champions, and the subtree is the plain
    bound-pruned tree of ``_bound_tree``.  Its nodes and bound prunes are
    added unless the budget would end inside it, in which case it is
    walked.  ``gates`` (``_sparse_gates``) says where to test and rejects
    most failing nodes before the stars are read.  So the search counts
    and keeps exactly what a full check at every leaf of the whole tree
    would."""
    edges, index = rows.edges, rows.index
    n, m = rows.n, len(edges)
    fam = count = 0
    for i in range(depth):
        if prefix_bits >> i & 1:
            if daisy_completed_by_edge(rows, fam, i):
                return (threshold, [], 1, 1, 0, False)
            fam |= 1 << i
            count += 1
    best = threshold
    witnesses = []
    # the last exchange witness found in this subtree; until there is one,
    # ``need`` holds an index past the last edge and refutes no family
    need, repair = 1 << m, 0
    full = (1 << m) - 1
    ceiling, forbid = gates
    # the stars are read only where some ceiling asks for the test
    stars = list(rows.stars.values()) if max(ceiling) >= 0 else []
    min_edges = comb(rows.t, rows.s)
    hot = 0  # the star that last held C(t, s) edges of ``upper``
    tree_rows = []  # the table of _bound_tree

    def sparse(upper):
        nonlocal hot
        for j, star in enumerate(stars):
            if (star & upper).bit_count() >= min_edges:
                hot = j
                return False
        return True

    def leaf(fam, count):
        nonlocal best, witnesses, need, repair
        if not count or count < best:
            return
        if fam & need == need and not fam & repair:
            return
        family = [edges[i] for i in bit_indices(fam)]
        violation = exchange_violation(n, family)
        if violation is not None:
            need, repair = _witness_masks(violation, index)
            return
        if count > best:
            best = count
            witnesses = []
        if len(witnesses) < cap:
            witnesses.append(tuple(sorted(family)))

    nodes = pruned_daisy = pruned_bound = 0
    exhausted = False
    idx = depth
    while True:
        if nodes >= budget:
            exhausted = True
            break
        nodes += 1
        left = m - idx
        if not left:
            leaf(fam, count)
        elif count + left < best:
            pruned_bound += 1
        else:
            below = 0
            if count + left <= ceiling[idx] and not fam & forbid[idx] and fam & need == need:
                upper = fam | full >> idx << idx
                if (
                    not upper & repair
                    and (stars[hot] & upper).bit_count() < min_edges
                    and sparse(upper)
                ):
                    below, bound = _bound_tree(tree_rows, left, count + left - best)
            if 0 < below <= budget - nodes + 1:
                nodes += below - 1
                pruned_bound += bound
            else:
                if daisy_completed_by_edge(rows, fam, idx):
                    pruned_daisy += 1
                else:
                    fam |= 1 << idx
                    count += 1
                idx += 1
                continue
        # the subtree below this node is done: next is the exclude child of
        # the last included edge, the highest chosen edge past the prefix
        if fam >> depth == 0:
            break
        idx = fam.bit_length()
        fam ^= 1 << idx - 1
        count -= 1
    return (best, witnesses, nodes, pruned_daisy, pruned_bound, exhausted)


def search_ex(n: int, r: int, s: int, t: int, opts: SearchOptions | None = None) -> SearchReport:
    """Exact max basis count over labeled rank-r matroids on [n] with no
    U(s, t)-minor, with canonical witnesses.

    A catalog construction seeds the incumbent when available (it is itself
    a valid candidate, so ties with it are still collected).  The prefix
    subtrees share ``opts.max_nodes`` in fixed order; once it is spent the
    remaining subtrees are skipped and the report is partial
    (exhaustive=False).  They also share one ``DaisyRows``, so an edge's
    row is built once, on its first daisy test in any subtree.
    """
    opts = opts or SearchOptions()
    if not (1 <= s <= t):
        raise MatroidError("need 1 <= s <= t")
    if not (0 < r <= n):
        raise MatroidError("need 0 < r <= n")
    if n > MAX_GROUND_SET:
        raise MatroidError("ground set too large")
    m = comb(n, r)
    if s > r:
        # no rank-s minor exists; the unrestricted maximum is the uniform matroid
        witnesses = _witnesses(n, [uniform(r, n).bases], opts.witness_cap)
        return SearchReport(n, r, s, t, m, witnesses, 1, 0, 0, True)
    seed = best_known_construction(n, r, s, t)
    threshold = seed.basis_count if seed is not None else 0
    rows = DaisyRows(n, r, s, t)
    gates = _sparse_gates(rows, threshold)

    depth = min(SPLIT_DEPTH, m)
    left = opts.max_nodes
    results = []
    for prefix in range(1 << depth):
        if left <= 0:
            break
        res = _subtree_search(rows, gates, prefix, depth, threshold, left, opts.witness_cap)
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
    witnesses = _witnesses(n, families, opts.witness_cap)
    return SearchReport(
        n, r, s, t, max_bases, witnesses, nodes, pruned_daisy, pruned_bound, exhaustive
    )


def _witnesses(n: int, families, cap: int) -> tuple:
    """Witness matroids on [n]: the canonical forms of at most ``cap``
    pairwise non-isomorphic families."""
    return tuple(
        Matroid.from_bases(n, key, validate=False)
        for key in dedupe_isomorphic(n, families, cap=cap)
    )


def exhaustive_oracle_max_bases(n: int, r: int, s: int, t: int):
    """Plain brute force over every nonempty family of r-subsets of [n]:
    keep the exchange-valid ones without a U(s, t)-minor (checked by the
    rank-arithmetic oracle) and return (max count, maximizing families).

    Cost 2^C(n, r); this is the reference the optimized search is held to.
    """
    edges = [mask_of(c) for c in combinations(range(n), r)]
    m = len(edges)
    if m > 20:
        raise MatroidError(f"oracle budget exceeded: 2^{m} families")
    best = 0
    champions = []
    for pick in range(1, 1 << m):
        family = [edges[i] for i in range(m) if pick >> i & 1]
        if len(family) < best:
            continue
        if not validate_exchange(n, family):
            continue
        M = Matroid.from_bases(n, family, validate=False)
        if uniform_minor_oracle(M, s, t):
            continue
        if len(family) > best:
            best = len(family)
            champions = []
        champions.append(M)
    return best, champions


def _has_arc(through, t: int) -> int:
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


def _has_fan(through, t: int) -> int:
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


def _e3(comps: np.ndarray, points) -> np.ndarray:
    """Per row of ``comps``, the third elementary symmetric polynomial of
    its entries at ``points``: the number of ways to pick one element from
    each of three of those points' parallel classes."""
    e1 = e2 = e3 = 0
    for i in points:
        col = comps[:, i]
        e3 = e3 + e2 * col
        e2 = e2 + e1 * col
        e1 = e1 + col
    return e3


class _BlowupCounts:
    """Basis counts of the parallel blow-ups to n elements of simple rank-3
    matroids on p points, one per composition mu of n into p parts (the
    rows of ``comps``, in lexicographic order).

    The blow-up of a line family by mu has e3(mu) - sum over its long lines
    L of e3(mu|L) bases: a basis picks one copy from each of three points,
    and two long lines share at most one point, so each collinear triple
    lies on exactly one long line.  Each line's vector of e3(mu|L) is
    computed on first use.
    """

    def __init__(self, n: int, p: int):
        # cut points 0 < c_1 < ... < c_(p-1) < n in lexicographic order give
        # the parts c_(i+1) - c_i in lexicographic order; every count is at
        # most C(n, 3), so int32 holds it for any ground set
        cuts = np.array(list(combinations(range(1, n), p - 1)), np.int32).reshape(-1, p - 1)
        rows = len(cuts)
        ends = np.hstack([np.zeros((rows, 1), np.int32), cuts, np.full((rows, 1), n, np.int32)])
        self.comps = np.diff(ends, axis=1)
        self.total = _e3(self.comps, range(p))
        self.line_e3 = {}

    def values(self, family) -> np.ndarray:
        """The basis count of each composition's blow-up of ``family``."""
        vals = self.total
        for ln in family:
            if ln not in self.line_e3:
                self.line_e3[ln] = _e3(self.comps, bit_indices(ln))
            vals = vals - self.line_e3[ln]
        return vals

    def best(self, family):
        """The largest count and the first composition attaining it."""
        vals = self.values(family)
        top = int(vals.argmax())
        return int(vals[top]), self.comps[top].tolist()


def search_ex_rank3(n: int, s: int, t: int, opts: SearchOptions | None = None) -> SearchReport:
    """Rank-3 geometric backend for the extremal search.

    Every rank-3 matroid is a parallel blow-up of a simple one plus loops,
    and loops never help, so the search enumerates simple rank-3 matroids
    (as families of pairwise almost-disjoint long lines on p labeled
    points), rejects ones containing the forbidden structure, and then
    maximizes the blow-up count exactly over all multiplicity vectors
    summing to n.  Forbidden structures are read off the line family and
    are insensitive to parallel copies:

    - a simple rank-3 matroid has a U(2,t)-minor exactly when some point
      lies on at least t lines, 2-point lines included: its rank-2 minors
      are M/e\\D, whose parallel classes are the lines through e,
      or subsets of a line L, and a point off L lies on >= |L| lines;
    - a U(3,t)-minor of a rank-3 matroid is a U(3,t)-restriction, a set of
      t points with no three on a long line (``_has_arc``).

    Two lines are compatible when they share at most one point.  For each
    point count the walk numbers the candidate lines in increasing mask
    order and precomputes, per line i, the bitset ``compat[i]`` of the
    later lines compatible with it, and its points as a tuple.  A node
    carries ``avail``, the later lines compatible with all of its own; it
    visits its children in increasing order of the set bits of ``avail``,
    and the child that adds line i gets ``avail & compat[i]``.  The walk
    keeps one per-point state, ``through[e]``, the long lines through
    point e.  A node that is not free passes the witness it found (or
    inherited) to its children: an arc from ``_has_arc``, or a fan from
    ``_has_fan``.  A child that adds line L keeps it, with no search,
    while at most two of its points lie on L; otherwise the child searches
    afresh.  L is the only new long line, so an arc keeps no three points
    on one line.  A fan through e keeps its points on distinct lines
    through e: if L misses e it changes no line through e, and if L passes
    through e it holds at most one other fan point.

    A free node is scored in closed form: its blow-up with multiplicities
    mu has e3(mu) - sum over long lines L of e3(mu|L) bases, e3 being the
    third elementary symmetric polynomial (``_BlowupCounts``).  The
    compositions of n into p parts and their e3 are computed once per
    point count, on its first free node, and each line's vector of
    e3(mu|L) on first use; the first composition in lexicographic order
    attaining the maximum is the node's multiplicity vector.  Only a node
    that joins the champions builds its matroid.

    Exhaustive only while opts.rank3_point_cap reaches n; line families on
    more simple points than the cap are not visited and the report is
    marked partial, since their count grows explosively.
    """
    opts = opts or SearchOptions()
    if s not in (2, 3):
        raise MatroidError("rank-3 backend supports forbidding U(2,t) or U(3,t)")
    if t < s:
        raise MatroidError("need t >= s")
    if s == 3 and t == 3:
        raise MatroidError("every rank-3 matroid has a U(3,3)-minor")
    if n < 3:
        raise MatroidError("rank 3 needs n >= 3")

    find_witness = _has_arc if s == 3 else _has_fan
    budget = opts.max_nodes
    nodes = 0
    pruned_forbidden = 0
    best = 0
    champions = []
    exhausted = False
    p_cap = min(n, opts.rank3_point_cap)

    for p in range(3, p_cap + 1):
        if exhausted:
            break
        candidates = sorted(
            mask_of(combo) for k in range(3, p + 1) for combo in combinations(range(p), k)
        )
        points = [tuple(bit_indices(ln)) for ln in candidates]
        m = len(candidates)
        # bit j of compat[i] is set when j > i and lines i and j share at
        # most one point
        compat = [
            sum(1 << j for j in range(i + 1, m) if (ln & candidates[j]).bit_count() <= 1)
            for i, ln in enumerate(candidates)
        ]
        full = (1 << p) - 1
        through = [[] for _ in range(p)]
        blowups = None  # built on the first free node on p points

        def dfs(family, avail, parent_free, witness):
            """Visit the node ``family`` and its children, the families that
            add one line of ``avail``.  Adding a line removes arcs and merges
            lines through its points, so freeness passes from parent to
            child for both s; ``witness`` is an arc or fan the node still
            has, or 0 if it must be searched for."""
            nonlocal nodes, best, champions, pruned_forbidden, exhausted, blowups
            if nodes >= budget:
                exhausted = True
                return
            nodes += 1
            if family == [full]:
                return  # all triples collinear: rank below 3, and no child
            if parent_free:
                free = True
            else:
                witness = witness or find_witness(through, t)
                free = not witness
            if not free:
                pruned_forbidden += 1
            else:
                if blowups is None:
                    blowups = _BlowupCounts(n, p)
                val, mult = blowups.best(family)
                if val > best:
                    best = val
                    champions = []
                if val == best and len(champions) < opts.witness_cap:
                    champions.append(parallel_blowup(rank3_from_lines(p, family), mult).bases)
            while avail:
                low = avail & -avail
                avail ^= low
                i = low.bit_length() - 1
                ln, pts = candidates[i], points[i]
                family.append(ln)
                for e in pts:
                    through[e].append(ln)
                kept = witness if (witness & ln).bit_count() <= 2 else 0
                dfs(family, avail & compat[i], free, kept)
                for e in pts:
                    through[e].pop()
                family.pop()
                if exhausted:
                    return

        dfs([], (1 << m) - 1, False, 0)

    exhaustive = (p_cap >= n) and not exhausted
    witnesses = _witnesses(n, champions, opts.witness_cap)
    return SearchReport(
        n, 3, s, t, best, witnesses, nodes, pruned_forbidden, 0, exhaustive
    )


def search_binary_max_bases(r: int, size: int, witness_cap: int = 16) -> SearchReport:
    """Exhaustive maximum of the basis count over all ``size``-subsets of the
    nonzero vectors of GF(2)^r.

    Element i of ``projective_geometry(r, 2)`` is the vector i + 1 (read
    most-significant bit first), so a subset of positions spans the bases of
    the geometry that it contains.  Also reports whether a flat-complement
    (Bose-Burton) subset attains the maximum when ``size`` matches one.
    """
    if not 1 <= r <= 4:
        raise MatroidError("exhaustive binary search supported for 1 <= r <= 4")
    if not r <= size < 1 << r:
        raise MatroidError(f"size must be in {r}..{(1 << r) - 1} for r = {r}")
    if witness_cap < 0:
        raise MatroidError(f"witness cap {witness_cap} is negative")
    pg = projective_geometry(r, 2)
    bases = np.array(pg.bases, dtype=np.int64)
    subsets = combinations(range(pg.n), size)
    subset_masks = np.array([mask_of(c) for c in subsets], dtype=np.int64)

    counts = ((subset_masks[:, None] & bases[None, :]) == bases[None, :]).sum(axis=1)
    best = int(counts.max())
    scan_cap = max(64, 8 * witness_cap)  # cap applies to canonical forms, so overscan
    # a champion contains a basis, so restricting to it keeps rank r
    champion_families = [
        restrict(pg, int(subset_masks[idx])).bases
        for idx in np.flatnonzero(counts == best)[:scan_cap]
    ]

    bb_attains = None
    for c in range(1, r):
        if size == (1 << r) - (1 << (r - c)):
            bb = bose_burton(r, 2, c)
            bb_attains = bb.basis_count == best
            break
    return SearchReport(
        n=size,
        r=r,
        s=2,
        t=4,
        max_bases=best,
        witnesses=_witnesses(size, champion_families, witness_cap),
        nodes_explored=len(subset_masks),
        pruned_daisy=0,
        pruned_bound=0,
        exhaustive=True,
        bose_burton_attains=bb_attains,
    )


def truncation_probe(r: int, m: int, q: int, s: int) -> int:
    """Largest t such that the m-step truncation of the rank-(r+m)
    projective geometry over GF(q) has a U(s, t)-minor."""
    if not is_prime_power(q):
        raise MatroidError(f"{q} is not a prime power")
    pg = projective_geometry(r + m, q)
    M = truncate(pg, m) if m else pg
    for t in range(M.n, s - 1, -1):
        if has_uniform_minor(M, s, t)[0]:
            return t
    raise MatroidError("no uniform minor at all; invalid parameters")


def density_rows(r: int, s: int, t: int, n_values, opts: SearchOptions | None = None):
    """Exact search per n; yields dicts with the basis-density rational."""
    rows = []
    for n in n_values:
        if n < r:
            continue
        report = search_ex(n, r, s, t, opts)
        rows.append(
            {
                "n": n,
                "r": r,
                "s": s,
                "t": t,
                "max_bases": report.max_bases,
                "binomial": comb(n, r),
                "density": Fraction(report.max_bases, comb(n, r)),
                "exhaustive": report.exhaustive,
            }
        )
    return rows
