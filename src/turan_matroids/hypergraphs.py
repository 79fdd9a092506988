"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.

``has_daisy`` looks for a daisy in a whole hypergraph: it builds each
stem's link as one vertex mask per (s-1)-set and grows petal sets with
``_petals_extend``.  ``daisy_completed_by_edge`` asks whether an edge
completes a daisy with a family of lower edges of the complete k-graph,
whose edges are indexed in lexicographic order: such a daisy has that
edge as its highest edge, so the test reads the family, a mask over
edge indices, against that edge's row of ``DaisyRows``.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    least stem and then the least t-set T* by ascending element lists.
    One pass over the edges builds the link of every (k-s)-subset (stem)
    of an edge.  A stem with C(t, s) or more link members gets one mask
    per (s-1)-set F, at ``slot_of[F]``, of the vertices u with F | {u} in
    the link, and its members P are extended by ``_petals_extend`` over
    the vertices above max P, in lexicographic order.  T* is a member P0
    and then vertices above max P0, and a t-set that began with an earlier
    member would precede T*; so P0 is the first member that extends, and
    its least extension, a mask, is T*.
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
        # the (s-1)-subsets of a petal are the petal less one vertex u
        slot_of, members = {}, []
        for petal in link:
            elems = tuple(bit_indices(petal))
            slots = [slot_of.setdefault(petal ^ 1 << u, len(slot_of)) for u in elems]
            members.append((elems, petal, slots))
        masks = [0] * len(slot_of)
        for elems, _, slots in members:
            for u, slot in zip(elems, slots):
                masks[slot] |= 1 << u
        for _, petal, slots in sorted(members):
            cand = -(1 << petal.bit_length())
            for slot in slots:
                cand &= masks[slot]
            got = _petals_extend(masks, slot_of, s, petal, cand, t - s)
            if got:
                return True, (stem, got)
    return False, None


def _petals_extend(masks, slot_of, s: int, chosen: int, cand: int, need: int) -> int:
    """The least petal set, as a mask, made of ``chosen`` and ``need``
    members of ``cand``; 0 if there is none.

    ``masks[slot_of[F]]`` is the vertex mask of the (s-1)-set F in
    the stem's link, as in ``has_daisy``.  ``cand`` holds the vertices u
    outside the stem and ``chosen`` for which every s-subset of ``chosen``
    | {u} is in the link.  With ``need`` <= 1 or s = 1 the lowest ``need``
    bits of ``cand`` complete it.  Otherwise vertices are added in
    increasing order, depth first, so the first completion is the least;
    adding u keeps the later candidates in the mask of {u} | G for every
    (s-2)-subset G of ``chosen``.  Each (s-1)-subset of ``chosen`` | {u}
    lies in an s-subset of it, so every slot looked up exists.
    """
    if need <= 1 or s == 1:
        if cand.bit_count() < need:
            return 0
        for _ in range(need):
            chosen |= cand & -cand
            cand &= cand - 1
        return chosen
    faces = tuple(subsets_of_size(chosen, s - 2))
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        rest = cand
        for face in faces:
            rest &= masks[slot_of[face | low]]
        if rest.bit_count() >= need - 1:
            got = _petals_extend(masks, slot_of, s, chosen | low, rest, need - 1)
            if got:
                return got
    return 0


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
    (k - s)-set S, and ``index`` maps an edge to its index.
    """

    def __init__(self, n: int, k: int, s: int, t: int):
        if not 1 <= s <= k or t < s:
            raise MatroidError("need 1 <= s <= k and t >= s")
        super().__init__()
        self.n, self.s, self.t = n, s, t
        self.edges, self.stars = edges, stars = [], {}
        for i, c in enumerate(combinations(range(n), k)):
            edges.append(mask_of(c))
            for stem in map(mask_of, combinations(c, k - s)):
                stars[stem] = stars.get(stem, 0) | 1 << i
        self.index = {e: i for i, e in enumerate(edges)}

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
