"""End-to-end verification of the toolkit's headline results.

Each criterion is a standalone check with its tolerance pinned in code;
``run_suite`` drives them for the CLI (one pass/fail line each) and the
test suite asserts them individually.  Everything is deterministic: RNG
seeds are fixed, and criterion 16 checks that reports are byte-identical
across fresh interpreters with different hash seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bounds as B
from .canonical import are_isomorphic
from .extremal import (
    exhaustive_oracle_max_bases,
    search_binary_max_bases,
    search_ex,
)
from .geometry import (
    bose_burton,
    matroid_from_vectors,
    projective_geometry,
    rank3_from_lines,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from .lagrangian import maximize, poly_eval, poly_gradient
from .matroid import (
    Matroid,
    MatroidError,
    connected_components,
    contract,
    delete,
    is_coloop,
    loops_mask,
    parallel_blowup,
    rank_of,
    simplify,
)
from .minors import count_matroids, has_uniform_minor, has_uniform_restriction, uniform_minor_oracle
from .rank3 import NoU25Minor, TwoLines, classify_u35_free, decompose_rank3


@dataclass(frozen=True)
class AcceptanceResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> AcceptanceResult:
    return AcceptanceResult(name, bool(passed), detail)


def random_linear_matroid(rng: random.Random, max_n: int = 7, min_n: int = 2) -> Matroid:
    """Random representable matroid from a random GF(2) or GF(3) matrix."""
    while True:
        n = rng.randint(min_n, max_n)
        q = rng.choice((2, 3))
        dim = rng.randint(1, min(n, 4))
        cols = [tuple(rng.randrange(q) for _ in range(dim)) for _ in range(n)]
        if not any(any(c) for c in cols):
            continue
        M = matroid_from_vectors(cols, q)
        if M.r < 1:
            continue
        return M


def random_rank3_construction(rng: random.Random, max_n: int = 12) -> Matroid:
    """Random member of the multi-line / blow-up family used by the rank-3
    structure checks."""
    kind = rng.randrange(3)
    if kind == 0:
        count = rng.randint(1, 3)
        sizes = [rng.randint(2, 6) for _ in range(count)]
        pclass = rng.randint(0, 4)
        while sum(sizes) + pclass > max_n:
            if pclass:
                pclass -= 1
            else:
                sizes[rng.randrange(len(sizes))] = max(2, sizes[0] - 1)
                sizes = sizes[:-1] if sum(sizes) + pclass > max_n and len(sizes) > 1 else sizes
        try:
            return rank3_multiline(sizes, pclass, simple_lines=False)
        except MatroidError:
            return two_disjoint_lines(3, 3)
    if kind == 1:
        a = rng.randint(2, max_n - 2)
        b = rng.randint(2, max_n - a)
        return two_disjoint_lines(a, b)
    p = rng.randint(4, 7)
    lines = []
    attempts = rng.randint(0, 4)
    for _ in range(attempts):
        size = rng.randint(3, min(p, 5))
        ln = 0
        for e in rng.sample(range(p), size):
            ln |= 1 << e
        if all((ln & other).bit_count() <= 1 for other in lines):
            lines.append(ln)
    try:
        simple = rank3_from_lines(p, lines)
    except MatroidError:
        simple = uniform(3, p)
    budget = max_n - simple.n
    mult = [1] * simple.n
    for _ in range(budget):
        if rng.random() < 0.4:
            mult[rng.randrange(simple.n)] += 1
    return parallel_blowup(simple, mult)


def criterion_01_basis_counts() -> AcceptanceResult:
    ok33 = B.projective_basis_count(3, 3) == 234 == projective_geometry(3, 3).basis_count
    ok32 = B.projective_basis_count(3, 2) == 28 == projective_geometry(3, 2).basis_count
    return _result(
        "01 projective basis counts 234 and 28, formula and construction",
        ok33 and ok32,
        f"b(3,3): formula {B.projective_basis_count(3, 3)}, built "
        f"{projective_geometry(3, 3).basis_count}; b(3,2): {B.projective_basis_count(3, 2)}, "
        f"{projective_geometry(3, 2).basis_count}",
    )


def criterion_02_blowup_equality() -> AcceptanceResult:
    blow = parallel_blowup(projective_geometry(3, 2), [2] * 7)
    bound = B.u2_max_bases_bound(14, 3, 2)
    minor_free = not has_uniform_minor(blow, 2, 4)[0]
    ok = blow.basis_count == 224 and bound == 224 and minor_free
    return _result(
        "02 doubled projective plane: 224 bases, meets bound, no U(2,4)-minor",
        ok,
        f"b={blow.basis_count}, bound={bound}, minor_free={minor_free}",
    )


def criterion_03_lagrangian_certified() -> AcceptanceResult:
    pg = projective_geometry(3, 2)
    res = maximize(pg, bound_t=2)
    target = 28.0 / 343.0
    ok_value = abs(res.value - target) < 1e-9 and res.certified
    rng = np.random.default_rng(20240831)
    worst_euler = 0.0
    for _ in range(100):
        x = rng.exponential(size=pg.n)
        x /= x.sum()
        worst_euler = max(
            worst_euler,
            abs(float(np.dot(x, poly_gradient(pg, x))) - pg.r * poly_eval(pg, x)),
        )
    ok_euler = worst_euler < 1e-12
    pyrng = random.Random(20240831)
    worst_rel = 0.0
    h = 1e-6
    for _ in range(20):
        M = random_linear_matroid(pyrng, max_n=7)
        x = rng.exponential(size=M.n)
        x /= x.sum()
        grad = poly_gradient(M, x)
        fd = np.zeros(M.n)
        for i in range(M.n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (poly_eval(M, xp) - poly_eval(M, xm)) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd))) / scale)
    ok_grad = worst_rel < 1e-6
    return _result(
        "03 Lagrangian of the Fano plane certified at 28/343; Euler and gradient checks",
        ok_value and ok_euler and ok_grad,
        f"value={res.value:.12f} certified={res.certified} euler_resid={worst_euler:.2e} "
        f"grad_rel_err={worst_rel:.2e}",
    )


def criterion_04_gradient_contraction_bound() -> AcceptanceResult:
    rng = np.random.default_rng(20240832)
    worst = -1.0
    for M in (projective_geometry(3, 2), uniform(3, 6)):
        link_opt = []
        for i in range(M.n):
            link_opt.append(maximize(contract(M, i)).value)
        for _ in range(100):
            x = rng.exponential(size=M.n)
            x /= x.sum()
            grad = poly_gradient(M, x)
            for i in range(M.n):
                slack = grad[i] - (1 - x[i]) ** (M.r - 1) * link_opt[i]
                worst = max(worst, float(slack))
    ok = worst <= 1e-7
    return _result(
        "04 derivative bounded by contraction optimum at 100 random points",
        ok,
        f"max slack {worst:.2e} (allowed 1e-7)",
    )


def criterion_05_density_consistency() -> AcceptanceResult:
    ok = True
    details = []
    for q in (2, 3, 4, 5):
        for r in range(2, 7):
            if B.u2_density(r, q) != B.u2_density_from_count(r, q):
                ok = False
                details.append(f"mismatch r={r} q={q}")
        seq = [B.u2_density(r, q) for r in range(2, 13)]
        if not all(a > b for a, b in zip(seq, seq[1:])):
            ok = False
            details.append(f"not decreasing q={q}")
        lo, hi = B.euler_product_interval(q, Fraction(1, 10**12))
        d12 = seq[-1]
        if not (d12 >= lo and d12 - hi <= Fraction(2, q**10)):
            ok = False
            details.append(f"limit band violated q={q}")
    return _result(
        "05 density product identity, monotone in rank, near the infinite product",
        ok,
        "; ".join(details) if details else "exact for r<=6, q in 2..5; within band at r=12",
    )


def criterion_06_search_u23() -> AcceptanceResult:
    rep4 = search_ex(4, 2, 2, 3)
    rep6 = search_ex(6, 2, 2, 3)
    ok = (
        rep4.max_bases == 4
        and rep6.max_bases == 9
        and rep4.exhaustive
        and rep6.exhaustive
    )
    simple_ok = True
    for rep in (rep4, rep6):
        for w in rep.witnesses:
            if simplify(w)[0].n > 2:
                simple_ok = False
    return _result(
        "06 no-3-point-circuit search: ex(4,2)=4, ex(6,2)=9, witnesses 2-point",
        ok and simple_ok,
        f"ex(4)={rep4.max_bases} ex(6)={rep6.max_bases} exhaustive="
        f"{rep4.exhaustive and rep6.exhaustive} witnesses_simplify_small={simple_ok}",
    )


def criterion_07_search_u1t() -> AcceptanceResult:
    vals = {}
    ok = True
    for n, t in ((3, 3), (4, 3), (4, 5)):
        rep = search_ex(n, 1, 1, t)
        vals[(n, 1, t)] = rep.max_bases
        ok = ok and rep.max_bases == t - 1 and rep.exhaustive
    rep = search_ex(3, 3, 1, 2)
    vals[(3, 3, 2)] = rep.max_bases
    ok = ok and rep.max_bases == 1 and rep.exhaustive
    return _result(
        "07 rank-1 forbidden parallel classes: ex = t-1; free matroid case = 1",
        ok,
        str(vals),
    )


def criterion_08_u34_oracle_equivalence() -> AcceptanceResult:
    oracle_max, oracle_champs = exhaustive_oracle_max_bases(6, 3, 3, 4)
    rep = search_ex(6, 3, 3, 4)
    ok = rep.max_bases == oracle_max and rep.exhaustive
    decompose_ok = True
    for w in rep.witnesses:
        comps = connected_components(w)
        if any(rank_of(w, c) > 2 for c in comps):
            decompose_ok = False
    agree_witness = any(
        are_isomorphic(6, rep.witnesses[0].bases, champ.bases) for champ in oracle_champs
    ) if rep.witnesses else False
    return _result(
        "08 rank-3 search equals brute-force oracle; witnesses split into rank<=2 parts",
        ok and decompose_ok and agree_witness,
        f"search={rep.max_bases} oracle={oracle_max} witnesses_rank2_summands={decompose_ok}",
    )


def criterion_09_two_lines_extremal() -> AcceptanceResult:
    M = two_disjoint_lines(7, 7)
    closed = B.ex_u35(14)
    outcome = classify_u35_free(M)
    restr = has_uniform_restriction(M, 3, 5)[0]
    ok = M.basis_count == 294 and closed == 294 and isinstance(outcome, TwoLines) and not restr
    return _result(
        "09 two 7-point lines: 294 bases = closed form; classified two-lines",
        ok,
        f"b={M.basis_count} closed={closed} outcome={type(outcome).__name__} "
        f"free_restriction={restr}",
    )


def criterion_10_classifier_robustness() -> AcceptanceResult:
    rng = random.Random(20240833)
    classified = 0
    two_lines = 0
    no_minor = 0
    attempts = 0
    while classified < 500 and attempts < 5000:
        attempts += 1
        M = random_rank3_construction(rng)
        simple, _ = simplify(M)
        if simple.r != 3:
            continue
        if has_uniform_restriction(simple, 3, 5)[0]:
            continue
        outcome = classify_u35_free(simple)  # raises TheoremViolation on failure
        classified += 1
        if isinstance(outcome, TwoLines):
            two_lines += 1
        else:
            no_minor += 1
    pg_outcome = classify_u35_free(projective_geometry(3, 2))
    ok = classified == 500 and isinstance(pg_outcome, NoU25Minor)
    return _result(
        "10 dichotomy classifier: 500 random constructions plus the Fano plane",
        ok,
        f"classified={classified} two_lines={two_lines} no_minor={no_minor} "
        f"fano={type(pg_outcome).__name__}",
    )


def criterion_11_decomposition_certificates() -> AcceptanceResult:
    rng = random.Random(20240834)
    results = {"odd": 0, "even": 0}
    k0_seen = False
    for parity in ("odd", "even"):
        target = 500
        attempts = 0
        while results[parity] < target and attempts < 6000:
            attempts += 1
            M = random_rank3_construction(rng)
            simple, _ = simplify(M)
            if simple.r != 3:
                continue
            m = rng.choice((2, 3))
            forbid = 2 * m + 1 if parity == "odd" else 2 * m + 2
            if has_uniform_restriction(simple, 3, forbid)[0]:
                continue
            dec = decompose_rank3(simple, m, parity)  # raises on certificate failure
            results[parity] += 1
            if dec.k == 0:
                k0_seen = True
    u34 = decompose_rank3(uniform(3, 4), 2, "odd")
    cap = comb(4, 2) * (comb(4, 2) - 1) + 4  # 34-point cap at k=0, m=2
    u34_ok = u34.k == 0 and u34.leftover.bit_count() <= cap and all(u34.certificate.values())
    ok = results["odd"] == 500 and results["even"] == 500 and u34_ok
    return _result(
        "11 greedy line decompositions: 500 certificates per parity, 34-point case",
        ok,
        f"odd={results['odd']} even={results['even']} k0_seen={k0_seen} u34_k0={u34_ok}",
    )


def criterion_12_binary_subsets() -> AcceptanceResult:
    rep34 = search_binary_max_bases(3, 4)
    rep48 = search_binary_max_bases(4, 8)
    bb48 = bose_burton(4, 2, 1).basis_count
    ok = (
        rep34.max_bases == 4
        and rep34.bose_burton_attains
        and rep48.max_bases == bb48
        and rep48.bose_burton_attains
        and rep48.nodes_explored == comb(15, 8)
        and rep34.exhaustive
        and rep48.exhaustive
    )
    return _result(
        "12 densest binary subsets: flat complements win at sizes 4 of 7 and 8 of 15",
        ok,
        f"max(3,4)={rep34.max_bases} max(4,8)={rep48.max_bases} bb48={bb48} "
        f"subsets={rep48.nodes_explored}",
    )


def criterion_13_averaging_identities() -> AcceptanceResult:
    rng = random.Random(20240835)
    deletion_checked = 0
    contraction_checked = 0
    trials = 0
    while (deletion_checked < 200 or contraction_checked < 200) and trials < 5000:
        trials += 1
        M = random_linear_matroid(rng, max_n=8)
        density = Fraction(M.basis_count, comb(M.n, M.r))
        loopless = loops_mask(M) == 0
        if loopless and M.r >= 1 and contraction_checked < 200:
            total = Fraction(0)
            for v in range(M.n):
                total += Fraction(contract(M, v).basis_count, comb(M.n - 1, M.r - 1))
            if total / M.n != density:
                return _result(
                    "13 exact averaging identities over deletions and contractions",
                    False, f"contraction identity failed on {M}")
            contraction_checked += 1
        coloopless = not any(is_coloop(M, e) for e in range(M.n))
        if loopless and coloopless and M.n > M.r and deletion_checked < 200:
            total = Fraction(0)
            for v in range(M.n):
                total += Fraction(delete(M, v).basis_count, comb(M.n - 1, M.r))
            if total / M.n != density:
                return _result(
                    "13 exact averaging identities over deletions and contractions",
                    False, f"deletion identity failed on {M}")
            deletion_checked += 1
    ok = deletion_checked >= 200 and contraction_checked >= 200
    return _result(
        "13 exact averaging identities over deletions and contractions",
        ok,
        f"deletion={deletion_checked} contraction={contraction_checked} (exact rationals)",
    )


def criterion_14_minor_oracle_equivalence() -> AcceptanceResult:
    rng = random.Random(20240836)
    matroids = [random_linear_matroid(rng, max_n=7) for _ in range(200)]
    pairs_checked = 0
    for M in matroids:
        for s in range(1, M.r + 1):
            for t in range(s, M.n + 1):
                fast = has_uniform_minor(M, s, t)[0]
                slow = uniform_minor_oracle(M, s, t)
                if fast != slow:
                    return _result(
                        "14 daisy detector agrees with contract-and-restrict oracle",
                        False,
                        f"disagreement at s={s} t={t} on n={M.n} bases={M.bases}",
                    )
                pairs_checked += 1
    return _result(
        "14 daisy detector agrees with contract-and-restrict oracle",
        True,
        f"200 matroids, {pairs_checked} (matroid, s, t) cases",
    )


def criterion_15_matroid_counts() -> AcceptanceResult:
    ok7 = count_matroids(3, 2) == 7
    duality_ok = True
    for n in range(1, 6):
        for r in range(0, n + 1):
            if count_matroids(n, r) != count_matroids(n, n - r):
                duality_ok = False
    return _result(
        "15 labeled matroid counts: 7 at (3,2); duality symmetry up to n=5",
        ok7 and duality_ok,
        f"count(3,2)={count_matroids(3, 2)} duality={duality_ok}",
    )


def criterion_16_determinism() -> AcceptanceResult:
    import contextlib
    import io as io_mod
    import os
    import subprocess
    import sys
    import tempfile
    from .cli import main as cli_main

    def capture(argv):
        buf = io_mod.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    # children import this very package, whatever sys.path found it on
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def child(argv, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "turan_matroids", *argv],
            capture_output=True, text=True, encoding="utf-8", env=env, timeout=300,
        )
        return proc.returncode, proc.stdout

    with tempfile.TemporaryDirectory() as tmp:
        fano = os.path.join(tmp, "fano.matroid")
        code, text = capture(["construct", "pg", "--r", "3", "--q", "2"])
        with open(fano, "w", encoding="utf-8") as fh:
            fh.write(text)
        commands = (
            ["lagrangian", "--in", fano, "--bound-t", "2", "--json"],
            ["search", "--n", "6", "--r", "2", "--forbid", "2,3", "--json"],
            ["binary-search", "--r", "4", "--size", "8", "--json"],
        )
        runs = [[capture(argv), child(argv, 0), child(argv, 1)] for argv in commands]
    same = all(outs[0] == outs[1] == outs[2] for outs in runs)
    codes_ok = all(code == 0 for outs in runs for code, _ in outs)
    return _result(
        "16 byte-identical reports across fresh interpreters",
        same and codes_ok,
        f"identical={same} exit_codes_ok={codes_ok} interpreters=3",
    )


CRITERIA = (
    (criterion_01_basis_counts, ("bounds", "geometry")),
    (criterion_02_blowup_equality, ("u2",)),
    (criterion_03_lagrangian_certified, ("lagrangian", "u2")),
    (criterion_04_gradient_contraction_bound, ("lagrangian",)),
    (criterion_05_density_consistency, ("bounds",)),
    (criterion_06_search_u23, ("search",)),
    (criterion_07_search_u1t, ("search",)),
    (criterion_08_u34_oracle_equivalence, ("search", "rank3")),
    (criterion_09_two_lines_extremal, ("rank3",)),
    (criterion_10_classifier_robustness, ("rank3",)),
    (criterion_11_decomposition_certificates, ("rank3",)),
    (criterion_12_binary_subsets, ("search",)),
    (criterion_13_averaging_identities, ("core",)),
    (criterion_14_minor_oracle_equivalence, ("minors",)),
    (criterion_15_matroid_counts, ("minors",)),
    (criterion_16_determinism, ("determinism",)),
)

SUITES = ("all", *dict.fromkeys(tag for _, tags in CRITERIA for tag in tags))


def run_suite(suite: str = "all"):
    """Run the acceptance criteria of a suite; returns AcceptanceResults.

    A criterion that raises (for instance a certificate escalation) is
    reported as failed rather than aborting the remaining criteria.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = []
    for fn, tags in CRITERIA:
        if suite != "all" and suite not in tags:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append(
                AcceptanceResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}")
            )
    return results
