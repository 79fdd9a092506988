"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.

``StemLinks`` keeps every stem's link, as one vertex mask per stem and
(s-1)-set, in a family of edges that changes one edge at a time, and
``daisy_completed_by_edge`` asks it whether the last edge added completed
a daisy; the extremal search uses the pair.  ``has_daisy`` builds the same
masks for one stem at a time.  Both detectors grow petal sets with one
search, ``_petals_extend``.
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
    of an edge.  A stem with C(t, s) or more link members gets the vertex
    masks of ``StemLinks``, keyed by the (s-1)-set alone, and its members
    P are extended by ``_petals_extend`` over the vertices above max P,
    in lexicographic order.  T* is a member P0 and then vertices above
    max P0, and a t-set that began with an earlier member would precede
    T*; so P0 is the first member that extends, and its least extension,
    a mask, is T*.
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
            got = _petals_extend(masks, slot_of, s, 0, petal, cand, t - s)
            if got:
                return True, (stem, got)
    return False, None


class StemLinks:
    """The link of every (k - s)-set (stem) in a family of k-subsets of
    [n] that gains and loses one edge at a time, for (s, t) daisy checks.

    Edges are named by their index in ``edges``, the k-subsets of [n] in
    lexicographic order.  A stem S and an (s-1)-set F disjoint from it
    have a slot, ``slot_of[S << n | F]``, and ``masks[slot]`` is the mask
    of the vertices u for which S | F | {u} is in the family.  Edge e owns
    one bit in each of C(k, s) * s slots: bit u of the slot of
    (S, e - S - u), for every stem S inside e and u in e - S.  ``push``
    ORs those bits in and ``pop`` XORs them out; no two edges own the same
    bit, so edges may be popped in any order.  ``stems[i]`` lists, per
    stem S inside edge i in lexicographic order, the key base S << n, the
    petal e - S as a mask and the slots of the petal's (s-1)-subsets.
    ``stars[S]`` is the mask of the indices of the edges that contain the
    stem S.
    """

    def __init__(self, n: int, k: int, s: int, t: int):
        if not 1 <= s <= k or t < s:
            raise MatroidError("need 1 <= s <= k and t >= s")
        self.n, self.s, self.t = n, s, t
        self.edges = [mask_of(c) for c in combinations(range(n), k)]
        self.slot_of = slot_of = {}
        self.bits = []
        self.stems = []
        self.stars = stars = {}
        faces_of = {}  # petal -> its (s-1)-subsets F, each with petal - F
        for i, edge in enumerate(self.edges):
            bits, stems, own = [], [], 1 << i
            for stem in subsets_of_size(edge, k - s):
                stars[stem] = stars.get(stem, 0) | own
                base, petal = stem << n, edge ^ stem
                faces = faces_of.get(petal)
                if faces is None:
                    faces = faces_of[petal] = tuple(
                        (face, petal & ~face) for face in subsets_of_size(petal, s - 1)
                    )
                slots = []
                for face, bit in faces:
                    slot = slot_of.setdefault(base | face, len(slot_of))
                    slots.append(slot)
                    bits.append((slot, bit))
                stems.append((base, petal, tuple(slots)))
            self.bits.append(tuple(bits))
            self.stems.append(tuple(stems))
        self.masks = [0] * len(slot_of)

    def push(self, i: int) -> None:
        masks = self.masks
        for slot, bit in self.bits[i]:
            masks[slot] |= bit

    def pop(self, i: int) -> None:
        masks = self.masks
        for slot, bit in self.bits[i]:
            masks[slot] ^= bit


def _petals_extend(masks, slot_of, s: int, base: int, chosen: int, cand: int, need: int) -> int:
    """The least petal set, as a mask, made of ``chosen`` and ``need``
    members of ``cand``; 0 if there is none.

    ``masks[slot_of[base | F]]`` is the vertex mask of the (s-1)-set F in
    the stem's link, as in ``StemLinks``.  ``cand`` holds the vertices u
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
            rest &= masks[slot_of[base | face | low]]
        if rest.bit_count() >= need - 1:
            got = _petals_extend(masks, slot_of, s, base, chosen | low, rest, need - 1)
            if got:
                return got
    return 0


def daisy_completed_by_edge(links: StemLinks, i: int) -> bool:
    """Does the family held in ``links`` contain an (s, t) daisy through
    edge ``i``?

    Edge ``i`` must already be pushed.  When the family without it has no
    daisy, this says whether adding it created one: daisy presence is
    monotone under edge insertion, so only daisies using edge ``i`` need
    checking.  For each stem S inside the edge, the petal set must contain
    the rest P of the edge and t - s vertices of the AND of the masks of
    P's (s-1)-subsets; for s = 1 any t - 1 of them will do.
    """
    masks, slot_of, s = links.masks, links.slot_of, links.s
    need = links.t - s
    for base, petal, slots in links.stems[i]:
        cand = ~petal
        for slot in slots:
            cand &= masks[slot]
        if cand.bit_count() >= need and (
            need <= 1 or s == 1 or _petals_extend(masks, slot_of, s, base, petal, cand, need)
        ):
            return True
    return False
