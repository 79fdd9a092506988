"""Matroids represented exactly by their basis families.

The ground set is {0, ..., n-1} with n <= 64, so every subset is a plain
int bitmask and subset operations are single machine-word operations.
Matroid values are immutable; every operation is a pure function returning
a new value.

Bases are stored sorted by bitmask value, which makes equality, hashing
and serialization canonical for a fixed labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product

from .bitsets import bit_indices, mask_of, shift_down_above, subsets_of_size

MAX_GROUND_SET = 64


class MatroidError(ValueError):
    """Structurally invalid matroid data or an inapplicable operation."""


class TheoremViolation(AssertionError):
    """A verified-certificate check failed; this would falsify a theorem."""


def validate_exchange(n: int, family) -> bool:
    """Basis-exchange predicate: equal sizes and (B1) for all ordered pairs."""
    return exchange_violation(n, family) is None


def exchange_violation(n: int, family):
    """First witness that ``family`` is not a basis family, or None.

    Returns ("size", B1, B2) on a cardinality mismatch, ("range", B, None)
    for a member not inside {0..n-1}, and ("exchange", B1, B2, x) when no
    y in B2-B1 repairs the removal of x from B1.

    The exchange check runs once per (B1, x), not once per pair.  Let
    D = {x} | {y not in B1 : B1 - x + y in F}.  A member B2 fails against
    (B1, x) exactly when B2 & D == 0: then x is not in B2 and no y in
    B2 - B1 repairs B1 - x.  D is the link of the (r-1)-set B1 - x, the
    mask of the z with (B1 - x) + z in F, so one pass over the members
    builds every link and D is one dictionary read.  For a matroid, D is
    the fundamental cocircuit of x with respect to B1, so few distinct D
    occur; the smallest member disjoint from each D is found once per D by
    a scan of F.

    The witness is the first violation in (B1, B2, x) order over sorted
    masks: the smallest B1 with a violation, then the smallest B2 that
    avoids one of its D, then the smallest x whose D that B2 avoids.
    """
    members = sorted(set(family))
    if not members:
        raise MatroidError("basis family must be nonempty")
    full = (1 << n) - 1 if n else 0
    r = members[0].bit_count()
    link = {}  # (r-1)-set S -> mask of the z with S + z a member
    get = link.get
    for b in members:
        if b & ~full:
            return ("range", b, None)
        if b.bit_count() != r:
            return ("size", members[0], b)
        rest = b
        while rest:
            bit = rest & -rest
            rest ^= bit
            link[b ^ bit] = get(b ^ bit, 0) | bit
    avoider = {}  # D -> smallest member disjoint from D, or None
    for b1 in members:
        witness = None
        rest = b1
        while rest:  # x in ascending order, as its bit
            bit = rest & -rest
            rest ^= bit
            d = link[b1 ^ bit]
            if d not in avoider:
                avoider[d] = next((b for b in members if not b & d), None)
            b2 = avoider[d]
            if b2 is not None and (witness is None or b2 < witness[0]):
                witness = (b2, bit)
        if witness is not None:
            return ("exchange", b1, witness[0], witness[1].bit_length() - 1)
    return None


@dataclass(frozen=True)
class Matroid:
    """Ground-set size, rank, and the sorted duplicate-free basis list."""

    n: int
    r: int
    bases: tuple

    @classmethod
    def from_bases(cls, n: int, bases, validate: bool = True) -> "Matroid":
        if not 0 <= n <= MAX_GROUND_SET:
            raise MatroidError(f"ground set size {n} outside 0..{MAX_GROUND_SET}")
        members = tuple(sorted(set(bases)))
        if not members:
            raise MatroidError("basis family must be nonempty")
        if validate:
            witness = exchange_violation(n, members)
            if witness is not None:
                kind, b1, b2 = witness[:3]
                if kind == "exchange":
                    raise MatroidError(
                        f"basis-exchange fails for pair {list(bit_indices(b1))}"
                        f" / {list(bit_indices(b2))} at element {witness[3]}"
                    )
                raise MatroidError(f"invalid basis family ({kind} violation)")
        return cls(n, members[0].bit_count(), members)

    @property
    def basis_count(self) -> int:
        return len(self.bases)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1 if self.n else 0


def _check_subset(M: Matroid, X: int):
    if X & ~M.full_mask:
        raise MatroidError(f"subset {X:#x} has bits outside the ground set of size {M.n}")


def rank_of(M: Matroid, X: int) -> int:
    """Rank of X: largest part of X contained in a basis."""
    _check_subset(M, X)
    return max((X & b).bit_count() for b in M.bases)


def closure(M: Matroid, X: int) -> int:
    """Maximal superset of X with the same rank: X plus every element that
    lies in no basis b with |b & X| = r(X).  One pass finds r(X) as the
    largest trace and the union of the bases that attain it."""
    _check_subset(M, X)
    rx, outside = -1, 0
    for b in M.bases:
        size = (b & X).bit_count()
        if size > rx:
            rx, outside = size, b
        elif size == rx:
            outside |= b
    return X | (M.full_mask & ~outside)


def flats(M: Matroid, k: int):
    """The rank-k flats, as sorted masks: the closures of the independent
    k-sets.  A k-set inside a flat already found is dependent or spans it,
    so it is skipped; only the flats through its least element can hold it.
    A singleton is independent exactly when it is not a loop."""
    if not 0 <= k <= M.r:
        raise MatroidError(f"flat rank {k} outside 0..{M.r}")
    nonloops = M.full_mask & ~loops_mask(M) if k == 1 else 0
    through = [[] for _ in range(M.n + 1)]  # the found flats through each element; all at -1
    for S in subsets_of_size(M.full_mask, k):  # lexicographic; the empty set (k = 0) reads -1
        held = any(S & F == S for F in through[(S & -S).bit_length() - 1])
        # S is new and independent
        if not held and (S & nonloops if k == 1 else any(b & S == S for b in M.bases)):
            F = closure(M, S)
            for e in (*bit_indices(F), -1):
                through[e].append(F)
    return sorted(through[-1])


def is_coloop(M: Matroid, e: int) -> bool:
    bit = 1 << e
    return all(b & bit for b in M.bases)


def loops_mask(M: Matroid) -> int:
    used = 0
    for b in M.bases:
        used |= b
    return M.full_mask & ~used


def delete(M: Matroid, e: int) -> Matroid:
    """Delete e; a coloop is contracted instead so the result stays a matroid."""
    if not 0 <= e < M.n:
        raise MatroidError(f"element {e} outside ground set")
    bit = 1 << e
    kept = [b for b in M.bases if not b & bit]
    if not kept:
        return contract(M, e)
    return Matroid.from_bases(M.n - 1, [shift_down_above(b, e) for b in kept], validate=False)


def contract(M: Matroid, e: int) -> Matroid:
    """Contract e; a loop is deleted instead."""
    if not 0 <= e < M.n:
        raise MatroidError(f"element {e} outside ground set")
    bit = 1 << e
    kept = [b & ~bit for b in M.bases if b & bit]
    if not kept:
        return delete(M, e)
    return Matroid.from_bases(M.n - 1, [shift_down_above(b, e) for b in kept], validate=False)


def restrict(M: Matroid, X: int) -> Matroid:
    """Restriction M|X relabeled onto 0..|X|-1 in order: its bases are the
    largest traces b & X of the bases of M."""
    _check_subset(M, X)
    traces = {b & X for b in M.bases}
    rx = max(b.bit_count() for b in traces)
    label = {e: i for i, e in enumerate(bit_indices(X))}
    bases = [mask_of(label[e] for e in bit_indices(b)) for b in traces if b.bit_count() == rx]
    return Matroid.from_bases(X.bit_count(), bases, validate=False)


def simplify(M: Matroid):
    """Return (simple matroid, representatives).

    Drops loops and keeps the smallest element of each parallel class, in
    increasing order; element i of the simple matroid is the class of
    representatives[i].  The classes are the rank-1 flats minus the loops.
    The rank is unchanged.
    """
    loops = loops_mask(M)
    classes = [F & ~loops for F in flats(M, 1)] if M.r else []  # rank 0: all loops
    classes.sort(key=lambda c: c & -c)  # by least element: {0, 5} before {1}
    reps = tuple((c & -c).bit_length() - 1 for c in classes)
    label = {e: i for i, c in enumerate(classes) for e in bit_indices(c)}
    seen = {mask_of(label[e] for e in bit_indices(b)) for b in M.bases}
    return Matroid.from_bases(len(classes), sorted(seen), validate=False), reps


def is_simple(M: Matroid) -> bool:
    return not loops_mask(M) and (M.n == 0 or len(flats(M, 1)) == M.n)


def direct_sum(M1: Matroid, M2: Matroid) -> Matroid:
    if M1.n + M2.n > MAX_GROUND_SET:
        raise MatroidError("direct sum exceeds the 64-element cap")
    bases = [b1 | (b2 << M1.n) for b1 in M1.bases for b2 in M2.bases]
    return Matroid.from_bases(M1.n + M2.n, bases, validate=False)


def truncate(M: Matroid, m: int) -> Matroid:
    """Lower the rank by m; new bases are the rank-(r-m) independent sets."""
    if not 0 <= m < M.r:
        raise MatroidError(f"truncation step {m} not in 0..{M.r - 1}")
    if m == 0:
        return M
    seen = set()
    for b in M.bases:
        seen.update(subsets_of_size(b, M.r - m))
    return Matroid.from_bases(M.n, sorted(seen), validate=False)


def parallel_blowup(M: Matroid, mult) -> Matroid:
    """Replace element i by a class of mult[i] pairwise-parallel copies."""
    mult = list(mult)
    if len(mult) != M.n:
        raise MatroidError("need one multiplicity per element")
    if any(m < 1 for m in mult):
        raise MatroidError("multiplicities must be positive")
    if loops_mask(M):
        raise MatroidError("blow-up requires a loopless matroid")
    total = sum(mult)
    if total > MAX_GROUND_SET:
        raise MatroidError("blow-up exceeds the 64-element cap")
    starts = list(accumulate(mult, initial=0))  # first copy of each element
    bases = []
    for b in M.bases:
        elems = list(bit_indices(b))
        for choice in product(*[range(mult[i]) for i in elems]):
            bases.append(mask_of(starts[e] + c for e, c in zip(elems, choice)))
    return Matroid.from_bases(total, bases, validate=False)


def connected_components(M: Matroid):
    """Masks of the connected components, sorted (elements sharing a
    circuit are connected; loops and coloops are singleton components).  A
    matroid is the direct sum of its restrictions to these masks.

    Read off one basis b: the fundamental circuit of f outside b is f plus
    every e in b with b - e + f a basis, and the components of the graph
    these circuits span are the matroid's (Krogdahl, "The dependence graph
    for bases in matroids", 1977).  A loop's fundamental circuit is itself
    and a coloop lies in none, so both come out as singletons.
    """
    b = M.bases[0]
    bases = set(M.bases)
    comps = [1 << e for e in range(M.n)]
    for f in bit_indices(M.full_mask & ~b):
        circuit = 1 << f
        for e in bit_indices(b):
            if b & ~(1 << e) | 1 << f in bases:
                circuit |= 1 << e
        joined = [c for c in comps if c & circuit]
        comps = [c for c in comps if not c & circuit] + [sum(joined)]  # disjoint: sum is union
    return sorted(comps)
