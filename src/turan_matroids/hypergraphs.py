"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import bit_indices, mask_of, popcount, subsets_of_size
from .matroid import Matroid, MatroidError, validate_exchange


@dataclass(frozen=True)
class UniformHypergraph:
    v: int
    k: int
    edges: tuple

    @classmethod
    def from_edges(cls, v: int, k: int, edges) -> "UniformHypergraph":
        members = tuple(sorted(set(edges)))
        full = (1 << v) - 1 if v else 0
        for e in members:
            if e & ~full:
                raise MatroidError(f"edge {e:#x} outside the {v}-element vertex set")
            if popcount(e) != k:
                raise MatroidError(f"edge {e:#x} is not {k}-uniform")
        return cls(v, k, members)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def complete_uniform(t: int, s: int) -> UniformHypergraph:
    """The complete s-graph on t vertices."""
    return UniformHypergraph.from_edges(t, s, (mask_of(c) for c in combinations(range(t), s)))


def basis_hypergraph(M: Matroid) -> UniformHypergraph:
    return UniformHypergraph(M.n, M.r, M.bases)


def hypergraph_is_matroidal(H: UniformHypergraph) -> bool:
    """True when the edge family satisfies the basis-exchange property."""
    if not H.edges:
        raise MatroidError("empty edge set")
    return validate_exchange(H.v, H.edges)


def suspension(H: UniformHypergraph, r: int) -> UniformHypergraph:
    """Add r-k fresh stem vertices (labeled v..v+r-k-1) to every edge."""
    if r < H.k:
        raise MatroidError("suspension rank below edge arity")
    d = r - H.k
    stem = ((1 << d) - 1) << H.v
    return UniformHypergraph(H.v + d, r, tuple(e | stem for e in H.edges))


def daisy(r: int, s: int, t: int) -> UniformHypergraph:
    return suspension(complete_uniform(t, s), r)


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


def _candidate_stems(H: UniformHypergraph, d: int, min_edges: int):
    """d-subsets contained in at least min_edges edges, ascending."""
    if d == 0:
        return [0] if len(H.edges) >= min_edges else []
    counts = {}
    for e in H.edges:
        for sub in subsets_of_size(e, d):
            counts[sub] = counts.get(sub, 0) + 1
    return sorted(s for s, c in counts.items() if c >= min_edges)


def has_daisy(H: UniformHypergraph, s: int, t: int):
    """Does H contain the daisy with petal parameters (s, t)?

    Returns (found, (stem_mask, petal_vertex_mask) or None).  The witness
    is lexicographically least: smallest stem first, then smallest t-set.
    Candidate stems are read off as frequent (k-s)-subsets of edges, and
    the petal set is grown over the link of the stem with backtracking.
    """
    if not 1 <= s <= H.k or t < s:
        raise MatroidError("need 1 <= s <= k and t >= s")
    d = H.k - s
    for stem in _candidate_stems(H, d, comb(t, s)):
        link = {e & ~stem for e in H.edges if e & stem == stem}
        support = sorted({u for e in link for u in bit_indices(e)})
        got = _grow_complete_subset(link, support, s, t)
        if got is not None:
            return True, (stem, mask_of(got))
    return False, None


def daisy_completed_by_edge(edges_set, k: int, s: int, t: int, new_edge: int) -> bool:
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
