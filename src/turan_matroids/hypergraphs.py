"""Uniform hypergraphs, suspensions, daisies, and subgraph search.

A daisy with stem size d and petal parameters (s, t) is the r-graph whose
edges are S union X for a fixed d-set S (d = r - s) and all s-subsets X of
a fixed t-set T disjoint from S.  It equals the rank-r suspension of the
complete s-graph on t vertices.

``StemLinks`` keeps every stem's link, as one vertex mask per stem and
(s-1)-set, in a family of edges that changes one edge at a time, and
``daisy_completed_by_edge`` asks it whether the last edge added completed
a daisy; the extremal search uses the pair.
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
    """

    def __init__(self, n: int, k: int, s: int, t: int):
        if not 1 <= s <= k or t < s:
            raise MatroidError("need 1 <= s <= k and t >= s")
        self.n, self.s, self.t = n, s, t
        self.edges = [mask_of(c) for c in combinations(range(n), k)]
        self.slot_of = {}
        self.bits = []
        self.stems = []
        for edge in self.edges:
            bits, stems = [], []
            for stem in subsets_of_size(edge, k - s):
                base, petal = stem << n, edge ^ stem
                slots = []
                for face in subsets_of_size(petal, s - 1):
                    slot = self.slot_of.setdefault(base | face, len(self.slot_of))
                    slots.append(slot)
                    bits.append((slot, petal & ~face))
                stems.append((base, petal, tuple(slots)))
            self.bits.append(tuple(bits))
            self.stems.append(tuple(stems))
        self.masks = [0] * len(self.slot_of)

    def push(self, i: int) -> None:
        masks = self.masks
        for slot, bit in self.bits[i]:
            masks[slot] |= bit

    def pop(self, i: int) -> None:
        masks = self.masks
        for slot, bit in self.bits[i]:
            masks[slot] ^= bit


def _petals_extend(links: StemLinks, base: int, chosen: int, cand: int, need: int) -> bool:
    """Do ``need`` >= 2 members of ``cand`` extend the petal set
    ``chosen`` of the stem ``base >> n``, for s >= 2?

    ``cand`` holds the vertices u outside the stem and ``chosen`` for which
    every s-subset of ``chosen`` | {u} is in the stem's link.  Vertices are
    added in increasing order; adding u keeps the later candidates that
    lie in the mask of {u} | G for every (s-2)-subset G of ``chosen``, and
    a branch stops when fewer candidates are left than vertices needed.
    """
    masks, slot_of = links.masks, links.slot_of
    faces = tuple(subsets_of_size(chosen, links.s - 2))
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        rest = cand
        for face in faces:
            rest &= masks[slot_of[base | face | low]]
        if rest.bit_count() >= need - 1 and (
            need == 2 or _petals_extend(links, base, chosen | low, rest, need - 1)
        ):
            return True
    return False


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
    masks, s = links.masks, links.s
    need = links.t - s
    for base, petal, slots in links.stems[i]:
        cand = ~petal
        for slot in slots:
            cand &= masks[slot]
        if cand.bit_count() >= need and (
            need <= 1 or s == 1 or _petals_extend(links, base, petal, cand, need)
        ):
            return True
    return False
