"""Extremal searches, rank-3 structure machinery, and probes."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from turan_matroids import extremal
from turan_matroids.bounds import ex_u35
from turan_matroids.canonical import dedupe_isomorphic
from turan_matroids.extremal import (
    SearchOptions,
    best_known_construction,
    exhaustive_oracle_max_bases,
    search_binary_max_bases,
    search_ex,
    search_ex_rank3,
    truncation_probe,
    density_rows,
)
from turan_matroids.bitsets import bit_indices, mask_of
from turan_matroids.geometry import (
    bose_burton,
    lines_of,
    projective_geometry,
    rank3_from_lines,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from turan_matroids.hypergraphs import DaisyRows, daisy_completed_by_edge
from turan_matroids.matroid import (
    MatroidError,
    exchange_violation,
    parallel_blowup,
    validate_exchange,
)
from turan_matroids.minors import has_uniform_minor, has_uniform_restriction, uniform_minor_oracle
from turan_matroids.rank3 import (
    NoU25Minor,
    TwoLines,
    classify_u35_free,
    decompose_rank3,
    line_cover_number,
)

from oracles import (
    arc_oracle,
    exchange_witness_refutes,
    fan_oracle,
    line_cover_oracle,
    search_ex_oracle,
    search_ex_rank3_oracle,
)


def test_search_small_u23_cells():
    assert search_ex(4, 2, 2, 3).max_bases == 4
    assert search_ex(5, 2, 2, 3).max_bases == 6  # 2*3 split, r does not divide n
    assert search_ex(6, 2, 2, 3).max_bases == 9


def test_search_matches_plain_oracle_small():
    for n, r, s, t in ((4, 2, 2, 3), (5, 2, 2, 3), (4, 2, 2, 4), (5, 3, 3, 4)):
        report = search_ex(n, r, s, t)
        oracle_max, _ = exhaustive_oracle_max_bases(n, r, s, t)
        assert report.max_bases == oracle_max
        assert report.exhaustive


def test_search_witnesses_match_oracle_classes():
    # one witness per isomorphism class of the brute-force champions
    cells = {(4, 2, 2, 3): 1, (5, 2, 2, 3): 1, (4, 2, 2, 4): 1, (5, 3, 3, 4): 2, (5, 2, 2, 4): 1}
    for (n, r, s, t), classes in cells.items():
        _, champions = exhaustive_oracle_max_bases(n, r, s, t)
        expected = dedupe_isomorphic(n, [M.bases for M in champions], cap=16)
        assert len(expected) == classes
        assert [w.bases for w in search_ex(n, r, s, t).witnesses] == expected


def test_search_witnesses_are_valid():
    report = search_ex(6, 2, 2, 3)
    assert report.witnesses
    for w in report.witnesses:
        assert w.basis_count == report.max_bases
        assert validate_exchange(w.n, w.bases)
        assert not has_uniform_minor(w, 2, 3)[0]


def test_search_s_above_rank_returns_uniform_max():
    report = search_ex(5, 2, 3, 4)
    assert report.max_bases == 10  # no rank-3 minor can exist in rank 2
    assert report.exhaustive


def test_search_budget_marks_partial():
    report = search_ex(6, 2, 2, 3, SearchOptions(max_nodes=64))
    assert not report.exhaustive


def test_search_budget_is_global():
    # the full search visits 229,385 nodes; any budget that covers them is
    # exhaustive, however the prefix subtrees split the work
    for budget in (240_000, 229_385):
        report = search_ex(6, 3, 3, 4, SearchOptions(max_nodes=budget))
        assert report.exhaustive
        assert report.nodes_explored == 229_385
        assert report.max_bases == 12
    report = search_ex(6, 3, 3, 4, SearchOptions(max_nodes=229_384))
    assert not report.exhaustive


def test_rank3_search_budget_is_exact():
    # each full rank-3 search visits 8,783 nodes, whatever it forbids
    for s, t in ((3, 5), (3, 4), (2, 4)):
        report = search_ex_rank3(7, s, t, SearchOptions(max_nodes=8_783))
        assert report.exhaustive and report.nodes_explored == 8_783, (s, t)
        report = search_ex_rank3(7, s, t, SearchOptions(max_nodes=8_782))
        assert not report.exhaustive and report.nodes_explored == 8_782, (s, t)
    for budget in (0, 1, 10, 100):
        report = search_ex_rank3(7, 3, 5, SearchOptions(max_nodes=budget))
        assert not report.exhaustive and report.nodes_explored <= budget


def test_search_options_reject_bad_budgets():
    for bad in ({"max_nodes": -5}, {"rank3_point_cap": 2}, {"rank3_point_cap": -1}):
        with pytest.raises(MatroidError):
            SearchOptions(**bad)
    assert SearchOptions(max_nodes=0, rank3_point_cap=3).max_nodes == 0


# (max_bases, nodes_explored, pruned_daisy, pruned_bound) of exhaustive
# searches whose daisy stems have 1, 0, 2, 0 and 0 elements
SEARCH_COUNTERS = {
    (5, 3, 2, 4): (8, 989, 39, 115),
    (6, 3, 1, 3): (8, 54_728, 21_447, 10_286),
    (6, 4, 2, 4): (12, 21_389, 1_177, 1_594),
    (6, 2, 2, 4): (12, 1_936, 290, 752),
    (7, 2, 2, 3): (12, 45_833, 16_853, 14_263),
}


def test_search_counters_pinned():
    for (n, r, s, t), expected in SEARCH_COUNTERS.items():
        rep = search_ex(n, r, s, t)
        assert rep.exhaustive
        assert (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound) == expected


# (max_bases, nodes_explored, pruned_daisy, pruned_bound) of partial
# searches under the given budgets whose include/exclude trees, 1,716,
# 1,225 and 2,016 edges deep, are deeper than Python's default recursion
# limit
DEEP_CELLS = {
    (13, 6, 3, 4, 20_000): (360, 20_000, 9_877, 0),
    (50, 2, 2, 50, 5_000): (1_223, 5_000, 0, 2_444),
    (64, 2, 2, 64, 5_000): (2_014, 5_000, 0, 2_015),
}


def test_search_deep_trees_stop_at_the_budget():
    for (*cell, budget), expected in DEEP_CELLS.items():
        rep = search_ex(*cell, SearchOptions(max_nodes=budget))
        assert not rep.exhaustive
        assert (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound) == expected


# (max_bases, nodes_explored, pruned_daisy, pruned_bound, exhaustive) of two
# cells outside the benchmark, as (n, r, s, t, node budget): rank 4 with
# (s, t) = (2, 5), whose daisy rows list (stem, petal set) pairs, and rank
# 1, whose one stem is the empty set
BUDGET_CELLS = {
    (7, 4, 2, 5, 3_000_000): (30, 3_000_000, 25_571, 435, False),
    (19, 1, 1, 7, extremal.DEFAULT_MAX_NODES): (6, 127_892, 50_388, 3_060, True),
}


def test_search_budget_cells_pinned():
    for (*cell, budget), expected in BUDGET_CELLS.items():
        rep = search_ex(*cell, SearchOptions(max_nodes=budget))
        counters = (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound)
        assert counters + (rep.exhaustive,) == expected, cell


# (max_bases, nodes_explored, pruned_daisy, pruned_bound, full exchange
# checks) of the benchmark's three generic searches.  Of the 15,435,
# 240,028 and 35 leaves that reach the exchange test, all but the counted
# ones are rejected by the last exchange witness found in their subtree.
LEAF_CHECKS = {
    (6, 3, 3, 4): (12, 229_385, 50_545, 54_229, 867),
    (6, 3, 2, 5): (18, 574_923, 1_345, 22_430, 728),
    (7, 2, 2, 3): (12, 45_833, 16_853, 14_263, 35),
}


def test_search_full_exchange_checks_pinned(monkeypatch):
    calls = []

    def counted(n, family):
        calls.append(n)
        return exchange_violation(n, family)

    monkeypatch.setattr(extremal, "exchange_violation", counted)
    for (n, r, s, t), expected in LEAF_CHECKS.items():
        calls.clear()
        rep = search_ex(n, r, s, t)
        assert rep.exhaustive
        counters = (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound)
        assert counters + (len(calls),) == expected


def test_search_skips_ties_once_the_witness_list_is_full(monkeypatch):
    # every family of singletons is a rank-1 matroid, so no check fails and
    # no exchange witness forms; a leaf that ties the incumbent after the
    # list holds its one champion is not checked
    calls = []

    def counted(n, family):
        calls.append(n)
        return exchange_violation(n, family)

    monkeypatch.setattr(extremal, "exchange_violation", counted)
    rep = search_ex(19, 1, 1, 7)
    counters = (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound)
    assert counters + (rep.exhaustive,) == (6, 127_892, 50_388, 3_060, True)
    assert [W.bases for W in rep.witnesses] == [(16, 32, 64, 128, 256, 512)]
    assert len(calls) == 256


# (calls, hits) of the incremental daisy check in the LEAF_CHECKS and
# SEARCH_COUNTERS searches: one call per edge added in the prefixes and at
# the visited nodes; the subtrees that are counted without a visit add
# none, so these pin which subtrees are counted
DAISY_CHECKS = {
    (6, 3, 3, 4): (139_989, 50_545),
    (6, 3, 2, 5): (15_164, 1_345),
    (7, 2, 2, 3): (31_367, 16_853),
    (5, 3, 2, 4): (396, 39),
    (6, 3, 1, 3): (38_081, 21_447),
    (6, 4, 2, 4): (5_924, 1_177),
    (6, 2, 2, 4): (1_137, 290),
}


def test_search_daisy_checks_pinned(monkeypatch):
    answers = []

    def counted(rows, fam, i):
        answers.append(daisy_completed_by_edge(rows, fam, i))
        return answers[-1]

    monkeypatch.setattr(extremal, "daisy_completed_by_edge", counted)
    for cell, expected in DAISY_CHECKS.items():
        answers.clear()
        assert search_ex(*cell).exhaustive
        assert (len(answers), sum(answers)) == expected


def _oracle_cells(max_n):
    """Every (n, r, s, t) with n <= max_n, s <= r and s <= t <= n - r + s + 1."""
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            for s in range(1, r + 1):
                for t in range(s, n - r + s + 2):
                    yield n, r, s, t


def test_search_matches_oracle():
    # the oracle is the same walk over a list of chosen edges and set-based
    # stem links; reports must agree, witnesses and counters included
    cells = [cell for cell in _oracle_cells(6) if cell[0] <= 5 or cell[1] != 3]
    cells += [*SEARCH_COUNTERS, *LEAF_CHECKS]
    assert len(cells) == 105 + 62 + 8
    for cell in cells:
        assert search_ex(*cell) == search_ex_oracle(*cell), cell
    for cell in ((6, 3, 3, 4), (6, 3, 2, 5)):
        for budget in (0, 1, 17, 777):
            opts = SearchOptions(max_nodes=budget)
            assert search_ex(*cell, opts) == search_ex_oracle(*cell, opts), (cell, budget)


def test_search_budgets_ending_in_counted_subtrees(monkeypatch):
    # (5, 3, 2, 4) and (6, 4, 2, 4) count whole subtrees without visiting
    # them; a budget that ends inside one walks it instead, and the partial
    # reports must still match the set-based walk
    counted = []
    walk_bound_tree = extremal._bound_tree

    def bound_tree(rows, q, slack):
        below, pruned = walk_bound_tree(rows, q, slack)
        counted.append(below)
        return below, pruned

    cells = [((5, 3, 2, 4), range(990))]
    rng = random.Random(6_4_2_4)
    cells.append(((6, 4, 2, 4), sorted(rng.sample(range(21_389), 40))))
    for cell, budgets in cells:
        with monkeypatch.context() as patch:
            patch.setattr(extremal, "_bound_tree", bound_tree)
            counted.clear()
            search_ex(*cell)
        assert sum(counted) > len(counted) > 0, cell
        for budget in budgets:
            opts = SearchOptions(max_nodes=budget)
            assert search_ex(*cell, opts) == search_ex_oracle(*cell, opts), (cell, budget)


def _bound_tree_walk(q, slack):
    """(nodes, pruned_bound) of the plain walk that ``_bound_tree``
    counts: no leaf is accepted and no include is refused."""
    if q == 0:
        return 1, 0
    if slack < 0:
        return 1, 1
    inc = _bound_tree_walk(q - 1, slack)
    exc = _bound_tree_walk(q - 1, slack - 1)
    return inc[0] + exc[0] + 1, inc[1] + exc[1]


def test_bound_tree_matches_walk():
    rows = []
    for q in range(13):
        for slack in range(-1, q + 2):
            assert extremal._bound_tree(rows, q, slack) == _bound_tree_walk(q, slack), (q, slack)
    # a fresh table gives the same counts in any order of queries
    assert extremal._bound_tree([], 12, 5) == _bound_tree_walk(12, 5)


def test_daisy_rows_stars_match_stems():
    # stars[S] holds the indices of exactly the edges that contain the stem S
    for n, r, s, t in ((6, 3, 2, 5), (6, 3, 1, 3), (6, 4, 2, 4), (7, 3, 2, 5), (5, 2, 2, 5)):
        rows = DaisyRows(n, r, s, t)
        assert sorted(rows.stars.values()) == sorted(
            mask_of(i for i, e in enumerate(rows.edges) if e & stem == stem)
            for stem in map(mask_of, combinations(range(n), r - s))
        )


def test_search_forbidding_u11_finds_nothing():
    # every matroid of rank r >= 1 has a U(1, 1)-minor: each first edge is
    # a daisy, no family survives and the catalog offers no seed
    for n in range(1, 5):
        for r in range(1, n + 1):
            rep = search_ex(n, r, 1, 1)
            assert (rep.max_bases, rep.witnesses, rep.exhaustive) == (0, (), True)
            assert rep == search_ex_oracle(n, r, 1, 1)


def test_witness_masks_match_set_refuter():
    # for every exchange witness of a random family of 3-subsets of [6],
    # the search's edge-index re-check agrees with the set-based refuter on
    # every other family drawn
    rng = random.Random(6_3)
    edges = [mask_of(c) for c in combinations(range(6), 3)]
    index = {e: i for i, e in enumerate(edges)}
    fams = [rng.getrandbits(len(edges)) for _ in range(300)]
    fams += [fam | rng.getrandbits(len(edges)) for fam in fams[:100]]
    sets = [{edges[i] for i in bit_indices(fam)} for fam in fams]
    witnesses = {exchange_violation(6, members) for members in sets if members}
    witnesses.discard(None)
    assert len(witnesses) > 50
    refuted = 0
    for w in witnesses:
        need, repair = extremal._witness_masks(w, index)
        for fam, members in zip(fams, sets):
            refutes = fam & need == need and not fam & repair
            assert refutes == exchange_witness_refutes(members, w), (w, fam)
            refuted += refutes
    assert refuted > 1_000


def test_best_known_construction_examples():
    M = best_known_construction(6, 3, 3, 4)
    assert M is not None and M.basis_count == 12
    M = best_known_construction(14, 3, 3, 5)
    assert M is not None and M.basis_count == 294


def test_rank3_backend_agrees_with_generic():
    for n, t in ((5, 4), (6, 4), (6, 5)):
        generic = search_ex(n, 3, 3, t)
        geometric = search_ex_rank3(n, 3, t)
        assert generic.max_bases == geometric.max_bases
        assert geometric.exhaustive


def test_rank3_search_matches_oracle():
    # the oracle builds every node's matroid and tests it with the minor
    # routines; reports must agree, witnesses and counters included
    for n in range(3, 7):
        for s in (2, 3):
            for t in range(s, 8):
                if (s, t) != (3, 3):
                    assert search_ex_rank3(n, s, t) == search_ex_rank3_oracle(n, s, t)
    assert search_ex_rank3(7, 2, 4) == search_ex_rank3_oracle(7, 2, 4)
    for n, s, t in ((6, 2, 4), (6, 3, 5)):
        for budget in (0, 1, 7, 100, 1000):
            opts = SearchOptions(max_nodes=budget)
            assert search_ex_rank3(n, s, t, opts) == search_ex_rank3_oracle(n, s, t, opts)
    # point caps below n, and a budget that ends inside the 7-point walk
    # (the walk visits 393 nodes on at most 6 points)
    for s in (2, 3):
        for cap in (5, 6):
            opts = SearchOptions(rank3_point_cap=cap)
            assert search_ex_rank3(7, s, 5, opts) == search_ex_rank3_oracle(7, s, 5, opts)
    opts = SearchOptions(max_nodes=3_000)
    assert search_ex_rank3(7, 3, 5, opts) == search_ex_rank3_oracle(7, 3, 5, opts)


def _line_families(p):
    """Every family of long lines on p points that pairwise share at most
    one point, except the single line through all p points."""
    candidates = [mask_of(c) for k in range(3, p + 1) for c in combinations(range(p), k)]

    def grow(start, family):
        if family != [(1 << p) - 1]:
            yield list(family)
        for i in range(start, len(candidates)):
            ln = candidates[i]
            if all((ln & other).bit_count() <= 1 for other in family):
                family.append(ln)
                yield from grow(i + 1, family)
                family.pop()

    return grow(0, [])


def _line_state_free(s, p, t, family):
    """Whether the walk's line state, folded over ``family``, reads the
    family as free of U(s, t)."""
    state, high, step, table = extremal._line_state(s, p, t, family)
    for entry in table:
        state = step(state, entry)
    return not state & high


def test_rank3_line_state_detects_minors():
    for p in range(3, 7):
        for family in _line_families(p):
            through = [[ln for ln in family if ln >> e & 1] for e in range(p)]
            M = rank3_from_lines(p, family)
            # the lines are the long lines plus every pair on none of them
            pairs = [mask_of(c) for c in combinations(range(p), 2)]
            short = [x for x in pairs if not any(x & ln == x for ln in family)]
            assert lines_of(M) == sorted(family + short), (p, family)
            for t in range(3, 8):
                fan = fan_oracle(through, t)
                arc = arc_oracle(through, t)
                # a found fan is a point and t others on distinct lines through it
                if fan:
                    assert fan.bit_count() == t + 1, (p, family, t)
                    assert any(
                        all((fan & ln).bit_count() <= 2 for ln in through[e])
                        for e in bit_indices(fan)
                    ), (p, family, t)
                # a found arc is t points with no three on one long line
                if arc:
                    assert arc.bit_count() == t, (p, family, t)
                    assert all((arc & ln).bit_count() <= 2 for ln in family), (p, family, t)
                assert bool(fan) == has_uniform_minor(M, 2, t)[0], (p, family, t)
                assert bool(arc) == has_uniform_restriction(M, 3, t)[0], (p, family, t)
                if p <= 5:
                    assert bool(fan) == uniform_minor_oracle(M, 2, t)
                    assert bool(arc) == uniform_minor_oracle(M, 3, t)
            # the search's per-line tables, folded over the family, give
            # the same answers
            for s, t in [(2, 2)] + [(s, t) for t in range(3, 8) for s in (2, 3)]:
                free = _line_state_free(s, p, t, family)
                if s == 3:
                    assert free != has_uniform_restriction(M, 3, t)[0], (p, family, t)
                else:
                    assert free != has_uniform_minor(M, 2, t)[0], (p, family, t)
                if p <= 5:
                    assert free != uniform_minor_oracle(M, s, t), (p, family, s, t)


def test_rank3_blowup_value_matches_bases():
    # e3(mu) - sum over long lines L of e3(mu|L), the search's score, is the
    # basis count of the blow-up of the line family by mu, and the search
    # keeps the first optimal mu in lexicographic order, as a strict scan does
    for p in range(3, 7):
        tables = [extremal._BlowupCounts(n, p) for n in range(p, 9)]
        for n, by_mult in zip(range(p, 9), tables):
            rows = [tuple(row) for row in by_mult.comps.tolist()]
            assert rows == sorted(rows) and len(set(rows)) == comb(n - 1, p - 1)
            assert all(min(row) >= 1 and sum(row) == n for row in rows)
        for family in _line_families(p):
            simple = rank3_from_lines(p, family)
            for by_mult in tables:
                values = by_mult.values(family)
                top = (-1, None)
                for mult, value in zip(by_mult.comps.tolist(), values.tolist()):
                    assert value == parallel_blowup(simple, mult).basis_count, (family, mult)
                    if value > top[0]:
                        top = (value, mult)
                assert by_mult.best(family) == top


# (max_bases, nodes_explored, pruned_daisy, pruned_bound) of the benchmark's
# three rank-3 searches, and how many final champions they have, the only
# nodes whose matroid is built
RANK3_COUNTERS = {
    (7, 3, 5): (30, 8_783, 6_763, 0),
    (7, 2, 4): (28, 8_783, 8_697, 0),
    (7, 3, 4): (20, 8_783, 8_755, 0),
}
RANK3_BUILDS = {(7, 3, 5): 16, (7, 2, 4): 16, (7, 3, 4): 6}


def test_rank3_counters_pinned(monkeypatch):
    calls = []

    def counted(p, lines):
        calls.append(p)
        return rank3_from_lines(p, lines)

    monkeypatch.setattr(extremal, "rank3_from_lines", counted)
    for (n, s, t), expected in RANK3_COUNTERS.items():
        calls.clear()
        rep = search_ex_rank3(n, s, t)
        assert rep.exhaustive
        assert (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound) == expected
        assert len(calls) == RANK3_BUILDS[n, s, t]


# the exhaustive cells at n = 8 with the point cap raised to 8: the
# report's counters and the bases of its witnesses
RANK3_CAP8 = {
    (3, 5): (
        (48, 441_822, 429_986, 0),
        [
            (7, 11, 13, 14, 19, 21, 22, 25, 26, 35, 37, 38, 41, 44, 50, 52, 56, 67, 69, 74,
             76, 81, 82, 84, 88, 97, 98, 100, 104, 112, 131, 134, 137, 138, 140, 145, 148,
             152, 161, 162, 164, 168, 176, 193, 194, 196, 200, 208),
        ],
    ),
    (3, 4): (
        (30, 441_822, 441_785, 0),
        [
            (7, 11, 13, 19, 21, 25, 35, 37, 41, 49, 67, 69, 73, 81, 97, 134, 138, 140, 146,
             148, 152, 162, 164, 168, 176, 194, 196, 200, 208, 224),
            (7, 11, 13, 19, 21, 25, 35, 37, 41, 49, 70, 74, 76, 82, 84, 88, 98, 100, 104,
             112, 134, 138, 140, 146, 148, 152, 162, 164, 168, 176),
        ],
    ),
    (2, 4): (
        (40, 441_822, 441_735, 0),
        [
            (7, 11, 13, 14, 19, 21, 22, 35, 37, 42, 44, 50, 52, 67, 70, 73, 76, 81, 84, 97,
             98, 100, 104, 112, 133, 134, 137, 138, 145, 146, 161, 162, 164, 168, 176, 193,
             194, 196, 200, 208),
        ],
    ),
}


def test_rank3_cap8_cells_pinned():
    for (s, t), (counters, witnesses) in RANK3_CAP8.items():
        rep = search_ex_rank3(8, s, t, SearchOptions(rank3_point_cap=8))
        assert rep.exhaustive, (s, t)
        assert (rep.max_bases, rep.nodes_explored, rep.pruned_daisy, rep.pruned_bound) == counters
        assert [w.bases for w in rep.witnesses] == witnesses, (s, t)


def test_rank3_backend_partial_beyond_point_cap():
    report = search_ex_rank3(8, 3, 5)
    assert not report.exhaustive  # the 8-point two-line witness is out of reach
    assert report.max_bases <= ex_u35(8) == RANK3_CAP8[3, 5][0][0]
    assert not search_ex_rank3(9, 2, 5).exhaustive  # U(2,5)-free goes up to 13 points


# ex(n, 3; U(2,4)) at the default point cap 7, which a simple rank-3 matroid
# without a U(2,4)-minor never exceeds (n = 10 left out: 0.9 s of labeling)
RANK3_U24 = {5: 8, 6: 16, 7: 28, 8: 40, 9: 56, 11: 104, 12: 136, 13: 176, 14: 224, 15: 272}


def test_rank3_u2t_exhaustive_once_the_cap_reaches_kungs_bound():
    for n, expected in RANK3_U24.items():
        rep = search_ex_rank3(n, 2, 4)
        assert (rep.max_bases, rep.exhaustive) == (expected, True), n
    rep = search_ex_rank3(8, 2, 4)
    counters, witnesses = RANK3_CAP8[2, 4]
    assert rep.max_bases == counters[0]
    assert [w.bases for w in rep.witnesses] == witnesses


def test_rank3_backend_rejects_bad_parameters():
    with pytest.raises(MatroidError):
        search_ex_rank3(6, 1, 3)
    with pytest.raises(MatroidError):
        search_ex_rank3(6, 3, 3)


def test_binary_search_r3():
    rep = search_binary_max_bases(3, 4)
    assert rep.max_bases == 4 and rep.bose_burton_attains
    rep = search_binary_max_bases(3, 7)
    assert rep.max_bases == 28  # the whole geometry is the only subset
    rep = search_binary_max_bases(3, 6)
    assert rep.max_bases == bose_burton(3, 2, 2).basis_count
    assert rep.bose_burton_attains


def test_binary_search_guards():
    with pytest.raises(MatroidError):
        search_binary_max_bases(5, 10)
    for size in (2, 8, 9):
        with pytest.raises(MatroidError, match=r"size must be in 3\.\.7"):
            search_binary_max_bases(3, size)


# size: (max_bases, subsets examined, bose_burton_attains, witness bases)
BINARY_R4 = {
    4: (1, 1365, None, (15,)),
    5: (5, 3003, None, (15, 23, 27, 29, 30)),
    6: (12, 5005, None, (15, 23, 27, 29, 39, 43, 46, 53, 54, 57, 58, 60)),
    7: (28, 6435, None, (
        15, 23, 27, 29, 39, 43, 46, 53, 54, 57, 58, 60, 71, 77, 78, 83, 86, 89, 90, 92,
        99, 101, 105, 106, 108, 113, 114, 116,
    )),
    8: (56, 6435, True, (
        15, 23, 27, 29, 39, 43, 46, 53, 54, 57, 58, 60, 71, 77, 78, 83, 86, 89, 90, 92,
        99, 101, 105, 106, 108, 113, 114, 116, 139, 141, 142, 147, 149, 150, 154, 156,
        163, 165, 166, 169, 172, 177, 178, 184, 195, 197, 198, 201, 202, 209, 212, 216,
        226, 228, 232, 240,
    )),
    9: (88, 5005, None, (
        15, 23, 27, 29, 30, 39, 43, 45, 54, 58, 60, 71, 75, 78, 85, 89, 92, 101, 102,
        105, 106, 108, 116, 120, 135, 141, 142, 147, 153, 154, 163, 166, 169, 170, 172,
        178, 184, 195, 197, 201, 202, 204, 209, 216, 225, 226, 228, 240, 267, 269, 270,
        275, 277, 278, 291, 293, 294, 298, 300, 306, 308, 323, 325, 326, 329, 332, 337,
        340, 353, 354, 360, 368, 387, 389, 390, 393, 394, 401, 402, 417, 420, 424, 432,
        450, 452, 456, 464, 480,
    )),
    10: (136, 3003, None, (
        15, 23, 27, 29, 30, 39, 43, 45, 54, 58, 60, 71, 75, 78, 85, 89, 92, 101, 102,
        105, 106, 108, 116, 120, 135, 139, 149, 150, 153, 154, 165, 169, 180, 184, 198,
        202, 212, 216, 228, 232, 263, 269, 270, 275, 281, 282, 291, 294, 297, 298, 300,
        306, 312, 323, 325, 329, 330, 332, 337, 344, 353, 354, 356, 368, 387, 389, 390,
        393, 394, 401, 402, 417, 420, 424, 432, 450, 452, 456, 464, 480, 523, 525, 526,
        531, 533, 534, 547, 549, 550, 554, 556, 562, 564, 579, 581, 582, 585, 588, 593,
        596, 609, 610, 616, 624, 643, 645, 646, 649, 650, 657, 658, 673, 676, 680, 688,
        706, 708, 712, 720, 736, 771, 773, 774, 777, 778, 785, 786, 801, 804, 808, 816,
        834, 836, 840, 848, 864,
    )),
}


def test_binary_search_r4_pinned():
    for size, (best, examined, bb_attains, witness) in BINARY_R4.items():
        rep = search_binary_max_bases(4, size)
        assert (rep.max_bases, rep.nodes_explored) == (best, examined)
        assert rep.bose_burton_attains is bb_attains
        assert [w.bases for w in rep.witnesses] == [witness]


def test_truncation_probes():
    assert truncation_probe(2, 1, 2, 2) == 7
    assert truncation_probe(3, 0, 2, 2) == 3
    assert truncation_probe(3, 0, 3, 2) == 4


def test_decompose_two_long_lines():
    dec = decompose_rank3(rank3_multiline([5, 5]), 2, "odd")
    assert dec.k == 2 and dec.leftover == 0
    dec = decompose_rank3(rank3_multiline([6, 6]), 2, "odd")
    assert dec.k == 2


def test_decompose_u34_leftover_case():
    dec = decompose_rank3(uniform(3, 4), 2, "odd")
    assert dec.k == 0
    assert dec.leftover.bit_count() == 4 <= 34
    assert all(dec.certificate.values())


def test_decompose_preconditions():
    with pytest.raises(MatroidError):
        decompose_rank3(uniform(2, 4), 2, "odd")  # wrong rank
    with pytest.raises(MatroidError):
        decompose_rank3(uniform(3, 7), 2, "odd")  # has a free 5-point restriction
    with pytest.raises(MatroidError):
        decompose_rank3(rank3_multiline([5, 5]), 2, "sideways")


def test_classify_examples():
    assert isinstance(classify_u35_free(two_disjoint_lines(4, 4)), TwoLines)
    assert isinstance(classify_u35_free(projective_geometry(3, 2)), NoU25Minor)
    out = classify_u35_free(two_disjoint_lines(7, 7))
    assert isinstance(out, TwoLines)
    assert out.line1 | out.line2 == (1 << 14) - 1


def test_classify_preconditions():
    with pytest.raises(MatroidError):
        classify_u35_free(uniform(3, 5))  # free 5-point restriction
    with pytest.raises(MatroidError):
        classify_u35_free(uniform(2, 4))  # wrong rank


def test_line_cover_values():
    assert line_cover_number(projective_geometry(3, 2)) == 3
    assert line_cover_number(two_disjoint_lines(5, 6)) == 2
    assert line_cover_number(uniform(3, 7)) == line_cover_oracle(uniform(3, 7)) == 4


def test_line_cover_matches_oracle_more():
    for M in (projective_geometry(3, 2), uniform(3, 6), rank3_multiline([3, 4], 2)):
        assert line_cover_number(M) == line_cover_oracle(M)


def test_two_lines_meet_closed_form():
    M = two_disjoint_lines(7, 7)
    assert M.basis_count == ex_u35(14) == 294
    assert not has_uniform_restriction(M, 3, 5)[0]
    # the exhaustive search attains the bound below 14 as well
    report = search_ex_rank3(6, 3, 5)
    assert report.exhaustive and report.max_bases == ex_u35(6) == 18


def test_density_rows_monotone():
    rows = density_rows(2, 2, 3, range(2, 8))
    densities = [row["density"] for row in rows]
    assert densities[0] == Fraction(1)
    assert all(a >= b for a, b in zip(densities, densities[1:]))
    assert all(row["exhaustive"] for row in rows)
    assert density_rows(2, 2, 3, []) == []


def test_search_report_density_cap():
    report = search_ex(5, 2, 2, 4)
    from math import comb

    assert report.max_bases <= comb(5, 2)
