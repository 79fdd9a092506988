"""Bitmask helpers for subsets of a ground set {0, ..., n-1} with n <= 64."""

from itertools import combinations


def bit_indices(mask: int):
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def index_list(mask: int) -> list:
    """The set bits of ``mask`` as an ascending list."""
    return list(bit_indices(mask))


def mask_of(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def subsets_of_size(mask: int, k: int):
    """All k-element subsets of ``mask``, as masks, in lexicographic index
    order; none when k < 0."""
    if k < 0:
        return
    elems = list(bit_indices(mask))
    for combo in combinations(elems, k):
        yield mask_of(combo)


def shift_down_above(mask: int, e: int) -> int:
    """Remove position ``e`` from the index space: bits above e slide down one."""
    low = mask & ((1 << e) - 1)
    high = (mask >> (e + 1)) << e
    return low | high
