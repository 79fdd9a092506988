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
walk.  A node that may still choose more edges than the stars can hold
with fewer than C(t, s) in each is not tested for this at all.  The
tree is split at a fixed depth into subtrees that run in fixed order
under one node budget, each getting whatever its predecessors left
unspent, so results and counters are deterministic.
"""

from __future__ import annotations

import operator
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


def _subtree_search(rows, prefix_bits, depth, threshold, budget, cap):
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
    by a re-verified violation.  A leaf that only ties the incumbent once
    ``cap`` champions are kept is skipped unchecked: accepted, it would
    not be kept, and rejected, it would change only the witness, which
    decides which leaves are checked and which subtrees are counted
    rather than walked, never what the walk reports.

    A node whose subtree is already decided is counted, not walked.  Let
    ``upper`` be its chosen edges and the undecided ones; every family
    below lies between the chosen edges and ``upper``.  When the witness
    refutes each of them (B1 and B2 chosen, no repair in ``upper``) and
    every stem lies in fewer than C(t, s) edges of ``upper``, so that no
    daisy test below can succeed, nothing below changes the incumbent,
    the witness or the champions, and the subtree is the plain
    bound-pruned tree of ``_bound_tree``.  Its nodes and bound prunes are
    added unless the budget would end inside it, in which case it is
    walked.  So the search counts and keeps exactly what a full check at
    every leaf of the whole tree would.

    The test is made only where three or more edges are left: a smaller
    subtree has at most seven nodes, and testing there costs more than it
    saves on searches where the test seldom passes.  Two cheap checks
    ahead of the star scan reject only nodes where the scan fails.  Each
    edge lies in C(r, s) stars, so ``upper`` fills some star once it holds
    more than ``dense`` = (C(t, s) - 1) * #stems / C(r, s) edges; every
    node the bound keeps holds at least the incumbent's count in
    ``upper``, so with a catalog seed above ``dense`` no node is tested
    and the stars are never read.  And a star that holds C(t, s) edges of
    ``upper`` fails the scan: the one that failed it last (``hot``) is
    read first, since the next tested node's ``upper`` often fills it
    too."""
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
    min_edges = comb(rows.t, rows.s)
    dense = (min_edges - 1) * comb(n, rows.k - rows.s) // comb(rows.k, rows.s)
    stars = list(rows.stars.values()) if dense >= threshold else []
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
        if count == best and len(witnesses) >= cap:
            return  # neither outcome of the check would change the report
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
            if left >= 3 and count + left <= dense and fam & need == need:
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

    depth = min(SPLIT_DEPTH, m)
    left = opts.max_nodes
    results = []
    for prefix in range(1 << depth):
        if left <= 0:
            break
        res = _subtree_search(rows, prefix, depth, threshold, left, opts.witness_cap)
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


def _line_state(s: int, p: int, t: int, lines):
    """The line state of the rank-3 walk on p points forbidding U(s, t),
    described in ``search_ex_rank3``: (root, high, step, table), one table
    entry per member of ``lines``.  A family's state is ``root`` folded by
    ``step`` over its lines' entries, and the family has the forbidden
    minor exactly when ``state & high`` is nonzero.  For s = 2 a point's
    line count sits in a w-bit field biased by 2^(w-1) - t, so the field's
    top bit is set exactly when the count reaches t; a count never goes
    below zero, so no borrow crosses fields.
    """
    if s == 3:
        arcs = [mask_of(c) for c in combinations(range(p), t)]
        root = (1 << len(arcs)) - 1
        table = [
            sum(1 << j for j, x in enumerate(arcs) if (x & ln).bit_count() <= 2) for ln in lines
        ]
        return root, root, operator.and_, table
    w = max(p, t).bit_length() + 1
    root = sum((p - 1 + (1 << w - 1) - t) << w * e for e in range(p))
    high = sum(1 << w * e + w - 1 for e in range(p))
    table = [sum((ln.bit_count() - 2) << w * e for e in bit_indices(ln)) for ln in lines]
    return root, high, operator.sub, table


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
      t points with no three on a long line, a t-arc.

    Two lines are compatible when they share at most one point.  For each
    point count the walk numbers the candidate lines in increasing mask
    order and precomputes, per line i, the bitset ``compat[i]`` of the
    later lines compatible with it.  A node carries ``avail``, the later
    lines compatible with all of its own; it visits its children in
    increasing order of the set bits of ``avail``, and the child that adds
    line i gets ``avail & compat[i]``.

    A node also carries one integer, ``state``, from which freeness is one
    test, ``state & high == 0`` (``_line_state``).  For s = 3 it is the
    bitset of t-subsets of the points that are still arcs; for s = 2 it
    packs, per point, the number of lines through it in a biased field of
    w = max(p, t).bit_length() + 1 bits whose top bit says "at least t".
    Adding line L changes an arc only if the arc holds three points of L,
    and changes a point's line count only by what L merges: the 2-point
    lines from e to the other points of L become one line, so e loses
    |L| - 2 lines, and two lines of the family share at most one point, so
    no other line is merged.  So the child that adds line i combines its
    parent's state with one precomputed entry in one operation:
    ``state & table[i]`` for s = 3, ``state - table[i]`` for s = 2.
    Beside ``compat``, with its m bits per candidate line, ``table`` holds
    C(p, t) bits per line for s = 3, never more than m since t > 3, and
    p * w bits, a few bytes, for s = 2.  Adding a line only removes arcs
    and merges lines, so a free node's children are free as well.

    A free node is scored in closed form: its blow-up with multiplicities
    mu has e3(mu) - sum over long lines L of e3(mu|L) bases, e3 being the
    third elementary symmetric polynomial (``_BlowupCounts``).  The
    compositions of n into p parts and their e3 are computed once per
    point count, on its first free node, and each line's vector of
    e3(mu|L) on first use; the first composition in lexicographic order
    attaining the maximum is the node's multiplicity vector.  A champion
    is kept as its point count, lines and multiplicities, and only the
    final champions' matroids are built, once the walk is done.

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
        m = len(candidates)
        # bit j of compat[i] is set when j > i and lines i and j share at
        # most one point
        compat = [
            sum(1 << j for j in range(i + 1, m) if (ln & candidates[j]).bit_count() <= 1)
            for i, ln in enumerate(candidates)
        ]
        root, high, step, table = _line_state(s, p, t, candidates)
        full = (1 << p) - 1
        blowups = None  # built on the first free node on p points

        def dfs(family, avail, state):
            """Visit the node ``family``, whose line state is ``state``, and
            its children, the families that add one line of ``avail``."""
            nonlocal nodes, best, champions, pruned_forbidden, exhausted, blowups
            if nodes >= budget:
                exhausted = True
                return
            nodes += 1
            if family == [full]:
                return  # all triples collinear: rank below 3, and no child
            if state & high:
                pruned_forbidden += 1
            else:
                if blowups is None:
                    blowups = _BlowupCounts(n, p)
                val, mult = blowups.best(family)
                if val > best:
                    best = val
                    champions = []
                if val == best and len(champions) < opts.witness_cap:
                    champions.append((p, tuple(family), mult))
            while avail:
                low = avail & -avail
                avail ^= low
                i = low.bit_length() - 1
                family.append(candidates[i])
                dfs(family, avail & compat[i], step(state, table[i]))
                family.pop()
                if exhausted:
                    return

        dfs([], (1 << m) - 1, root)

    exhaustive = (p_cap >= n) and not exhausted
    families = [
        parallel_blowup(rank3_from_lines(p, lines), mult).bases for p, lines, mult in champions
    ]
    witnesses = _witnesses(n, families, opts.witness_cap)
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
