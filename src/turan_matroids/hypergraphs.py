"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.

``StemLinks`` keeps every stem's link in a family that changes one edge
at a time, and ``daisy_completed_by_edge`` asks it whether the last edge
added completed a daisy; the extremal search uses the pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import bit_indices, mask_of, subsets_of_size
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
            if e.bit_count() != k:
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


def has_daisy(H: UniformHypergraph, s: int, t: int):
    """Does H contain the daisy with petal parameters (s, t)?

    Returns (found, (stem_mask, petal_vertex_mask) or None).  The witness
    is lexicographically least: smallest stem first, then smallest t-set.
    One pass over the edges builds the link of every (k-s)-subset (stem)
    of an edge; the petal set is grown over the link of each stem with
    C(t, s) or more members, with backtracking, using only vertices of
    degree at least C(t-1, s-1) in the link.
    """
    if not 1 <= s <= H.k or t < s:
        raise MatroidError("need 1 <= s <= k and t >= s")
    links = {}
    for e in H.edges:
        for stem in subsets_of_size(e, H.k - s):
            links.setdefault(stem, []).append(e ^ stem)
    min_edges, min_degree = comb(t, s), comb(t - 1, s - 1)
    for stem, link in sorted(links.items()):
        if len(link) < min_edges:
            continue
        degree = Counter(u for e in link for u in bit_indices(e))
        candidates = sorted(u for u, c in degree.items() if c >= min_degree)
        got = _complete_extension(set(link), 0, tuple(subsets_of_size(0, s - 1)), candidates, t, s)
        if got is not None:
            return True, (stem, got)
    return False, None


class StemLinks:
    """The link of every (k - s)-set (stem) in a family of k-subsets of
    [n] that gains and loses one edge at a time, for (s, t) daisy checks.

    ``link[stem]`` is {e - stem : stem a subset of e in the family}, and
    ``degree[stem][u]`` counts the members of that link containing u.
    ``push`` and ``pop`` keep both current, so ``daisy_completed_by_edge``
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


def daisy_completed_by_edge(links: StemLinks, new_edge: int) -> bool:
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
