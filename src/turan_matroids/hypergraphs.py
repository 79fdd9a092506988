"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.

``has_daisy`` looks for a daisy in a whole hypergraph: it builds each
stem's link and asks ``least_petal_set`` for the least t-set whose
s-subsets all lie in it.  ``daisy_completed_by_edge`` asks whether an edge
completes a daisy with a family of lower edges of the complete k-graph,
whose edges are indexed in lexicographic order: such a daisy has that
edge as its highest edge, so the test reads the family, a mask over
edge indices, against that edge's row of ``DaisyRows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .bitsets import bit_indices, mask_of, subsets_of_size
from .matroid import Matroid, MatroidError


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


def complete_uniform(t: int, s: int) -> UniformHypergraph:
    """The complete s-graph on t vertices."""
    return UniformHypergraph.from_edges(t, s, (mask_of(c) for c in combinations(range(t), s)))


def basis_hypergraph(M: Matroid) -> UniformHypergraph:
    return UniformHypergraph(M.n, M.r, M.bases)


def suspension(H: UniformHypergraph, r: int) -> UniformHypergraph:
    """Add r-k fresh stem vertices (labeled v..v+r-k-1) to every edge."""
    if r < H.k:
        raise MatroidError("suspension rank below edge arity")
    d = r - H.k
    stem = ((1 << d) - 1) << H.v
    return UniformHypergraph(H.v + d, r, tuple(e | stem for e in H.edges))


def daisy(r: int, s: int, t: int) -> UniformHypergraph:
    return suspension(complete_uniform(t, s), r)


def has_daisy(H: UniformHypergraph, s: int, t: int):
    """Does H contain the daisy with petal parameters (s, t)?

    Returns (found, (stem_mask, petal_vertex_mask) or None), with the
    least stem and then the least t-set by ascending element lists.
    One pass over the edges builds the link of every (k-s)-subset (stem)
    of an edge; a stem with C(t, s) or more link members gets its least
    petal set from ``least_petal_set``.
    """
    if not 1 <= s <= H.k or t < s:
        raise MatroidError("need 1 <= s <= k and t >= s")
    links = {}
    for e in H.edges:
        for stem in subsets_of_size(e, H.k - s):
            links.setdefault(stem, []).append(e ^ stem)
    min_edges = comb(t, s)
    for stem, link in sorted(links.items()):
        if len(link) < min_edges:
            continue
        petals = least_petal_set((1 << H.v) - 1 & ~stem, s, t, link)
        if petals is not None:
            return True, (stem, petals)
    return False, None


def least_petal_set(vertices: int, s: int, t: int, inside, outside=()):
    """The least t-subset of ``vertices`` by ascending element lists, as a
    mask, whose s-subsets all lie in ``inside`` and none of whose
    (s+1)-subsets lies in ``outside``; None if there is none.

    ``inside`` holds s-sets and ``outside`` (s+1)-sets, as masks.
    ``grow[F]`` is the mask of the vertices u with F | {u} in ``inside``,
    and ``block[G]`` the same for ``outside``.  Vertices are added in
    increasing order, depth first, so the first t-set found is the least.
    The candidates of a chosen set C are the vertices above max C that
    keep it valid: adding u keeps the later ones in ``grow[F | {u}]`` and
    out of ``block[G | {u}]`` for every (s-2)-subset F and (s-1)-subset G
    of C.  The empty set is valid when its s-subsets are in ``inside``,
    and its candidates lie in ``grow`` of its (s-1)-subsets and out of
    ``block`` of its s-subsets.
    """
    if any(face not in inside for face in subsets_of_size(0, s)):
        return None
    grow, block = {}, {}
    for table, family in ((grow, inside), (block, outside)):
        for member in family:
            for u in bit_indices(member):
                face = member ^ 1 << u
                table[face] = table.get(face, 0) | 1 << u
    cand = vertices
    for face in subsets_of_size(0, s - 1):
        cand &= grow.get(face, 0)
    for face in subsets_of_size(0, s):
        cand &= ~block.get(face, 0)
    return _least_extension(grow, block, s, 0, cand, t)


def _least_extension(grow, block, s: int, chosen: int, cand: int, need: int):
    """The least valid extension of ``chosen`` by ``need`` members of its
    candidates ``cand`` (``least_petal_set``), or None."""
    if need <= 1:
        if cand.bit_count() < need:
            return None
        return chosen | (cand & -cand if need else 0)
    grow_faces = tuple(subsets_of_size(chosen, s - 2))
    block_faces = tuple(subsets_of_size(chosen, s - 1)) if block else ()
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        rest = cand
        for face in grow_faces:
            rest &= grow.get(face | low, 0)
        for face in block_faces:
            rest &= ~block.get(face | low, 0)
        if rest.bit_count() >= need - 1:
            got = _least_extension(grow, block, s, chosen | low, rest, need - 1)
            if got is not None:
                return got
    return None


class DaisyRows(dict):
    """Per edge i, the daisies of the complete k-graph on [n] whose
    highest edge is edge i, for (s, t) daisy tests of edges taken in
    increasing order; ``self[i]`` is row i, built on first use.

    Edges are named by their index in ``edges``, the k-subsets of [n] in
    lexicographic order, where A precedes B exactly when min(A ^ B) lies
    in A.  So the highest edge of the daisy with stem S and petal set T is
    S | P, P the s largest vertices of T, and the other vertices U of T
    lie below min P and outside edge i.  Row i lists (mask, count) pairs:
    edge i and any ``count`` edges of ``mask`` below it form a daisy, and
    every daisy with highest edge i is formed so by exactly one pair.

    - For s = 1, one pair per vertex p of edge i: the edges through the
      stem S = edge - p (``stars[S]``), and t - 1.
    - For t = s + 1, one pair per vertex u outside edge i and below at
      least s of its vertices: the edges edge - p + u for the vertices
      p > u of edge i, and s.  Any s of them give P and U = {u}.
    - Otherwise, one pair per stem S inside edge i, with P = edge - S, and
      (t-s)-set U below min P outside edge i: the edges S | Q for every
      s-subset Q of P | U, and C(t, s) - 1.

    ``stars[S]`` is the mask of the indices of the edges that contain the
    (k - s)-set S, built on first read, and ``index`` maps an edge to its
    index.
    """

    def __init__(self, n: int, k: int, s: int, t: int):
        if not 1 <= s <= k or t < s:
            raise MatroidError("need 1 <= s <= k and t >= s")
        super().__init__()
        self.n, self.k, self.s, self.t = n, k, s, t
        self.edges = [mask_of(c) for c in combinations(range(n), k)]
        self.index = {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def stars(self) -> dict:
        stars, k = {}, self.k
        for i, c in enumerate(combinations(range(self.n), k)):
            for stem in map(mask_of, combinations(c, k - self.s)):
                stars[stem] = stars.get(stem, 0) | 1 << i
        return stars

    def __missing__(self, i: int) -> list:
        edge, s, t, index = self.edges[i], self.s, self.t, self.index
        elems = [1 << v for v in bit_indices(edge)]
        if s == 1:
            row = [(self.stars[edge ^ p], t - 1) for p in elems]
        elif t == s + 1:
            row = [
                (mask_of(index[edge ^ p | 1 << u] for p in elems if p > 1 << u), s)
                for u in range(elems[-s].bit_length() - 1)
                if not edge >> u & 1
            ]
        else:
            row, count = [], comb(t, s) - 1
            for stem in subsets_of_size(edge, len(elems) - s):
                petal = edge ^ stem
                for extra in subsets_of_size((petal & -petal) - 1 & ~edge, t - s):
                    qs = subsets_of_size(petal | extra, s)
                    row.append((mask_of(index[stem | q] for q in qs), count))
        self[i] = row
        return row


def daisy_completed_by_edge(rows: DaisyRows, fam: int, i: int) -> bool:
    """Does the family ``fam`` plus edge ``i`` hold an (s, t) daisy
    through edge ``i``?

    ``fam`` is a mask over edge indices below ``i``, so edge ``i`` is the
    highest edge of any such daisy, and the daisy is in row ``i``
    (``DaisyRows``).  When ``fam`` has no daisy, this says whether adding
    edge ``i`` created one: daisy presence is monotone under edge
    insertion.
    """
    for mask, count in rows[i]:
        if (fam & mask).bit_count() >= count:
            return True
    return False
