"""The benchmark's workloads, their inputs and their correctness gates.

Each workload is a fixed list of operations.  An operation runs library
code on inputs made during set-up and returns a JSON-able answer; its gate
returns the list of ways the answer is wrong (empty when it is right).
Gates run outside the timed region.  The expected values are the exact
results the paper's theory and the package's closed forms give; they do
not depend on the seed.

Every operation fills one of three timing slots (``op1_s`` .. ``op3_s``)
so that all workloads report the same end-to-end metric names.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SLOTS = ("op1_s", "op2_s", "op3_s")

# u2_lagrangian_bound(3, 3) = b(3,3) ((t-1)/(t^r-1))^r, where b(3,3) = 234
# is the basis count of the rank-3 projective geometry over GF(3); written
# out so that the gate does not trust the library.
LAGRANGIAN_PG33 = Fraction(234) * Fraction(2, 26) ** 3
LAGRANGIAN_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    slot: str
    run: Callable  # (inputs) -> answer
    check: Callable  # (answer, inputs) -> list of failure strings
    units: int = 1  # operations it counts as in attempted / failed


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed) -> inputs
    ops: tuple


# ---------------------------------------------------------------- search ops


def _search_answer(report):
    """Answer of an extremal search: the result, its counters and the
    witnesses' basis masks."""
    return {
        "max_bases": report.max_bases,
        "exhaustive": report.exhaustive,
        "nodes_explored": report.nodes_explored,
        "pruned_daisy": report.pruned_daisy,
        "pruned_bound": report.pruned_bound,
        "witnesses": [[W.n, W.r, list(W.bases)] for W in report.witnesses],
    }


def _search_gate(expected_max: int, r: int, s: int, t: int):
    def check(answer, inputs):
        from turan_matroids.matroid import Matroid, validate_exchange
        from turan_matroids.minors import uniform_minor_oracle

        bad = []
        if answer["max_bases"] != expected_max:
            bad.append(f"max_bases {answer['max_bases']} != {expected_max}")
        if answer["exhaustive"] is not True:
            bad.append("search not exhaustive")
        if not answer["witnesses"]:
            bad.append("no witness")
        for n, rank, bases in answer["witnesses"]:
            if rank != r or len(bases) != answer["max_bases"]:
                bad.append(f"witness rank {rank} / {len(bases)} bases")
                continue
            if not validate_exchange(n, bases):
                bad.append("witness fails basis exchange")
                continue
            W = Matroid.from_bases(n, bases, validate=False)
            if uniform_minor_oracle(W, s, t):
                bad.append(f"witness has a U({s},{t})-minor")
        return bad

    return check


def _search_op(name, slot, search, args, r, s, t, expected_max):
    """``extremal.<search>(*args)``, which forbids U(s, t) in rank r."""

    def run(inputs):
        from turan_matroids import extremal

        return _search_answer(getattr(extremal, search)(*args))

    return Op(name, slot, run, _search_gate(expected_max, r, s, t))


def _no_inputs(seed):
    """Search parameters fix all the work; the seed is recorded only."""
    return {}


# -------------------------------------------------------------- pipeline ops


def _relabel(M, perm):
    from turan_matroids.matroid import Matroid

    bases = []
    for b in M.bases:
        image = 0
        for e in range(M.n):
            if b >> e & 1:
                image |= 1 << perm[e]
        bases.append(image)
    return Matroid.from_bases(M.n, bases, validate=False)


def pipeline_setup(seed):
    """MATROID v1 text of seeded relabellings of fixed matroids.  The
    answers are invariant under relabelling, so they do not depend on the
    seed; the order in which the code meets the elements does."""
    from turan_matroids import formats, geometry

    rng = random.Random(seed)
    inputs = {}
    sources = {
        "pg33": geometry.projective_geometry(3, 3),
        "pg42": geometry.projective_geometry(4, 2),
        "lines77": geometry.two_disjoint_lines(7, 7),
        "multiline554": geometry.rank3_multiline([5, 5, 4]),
    }
    for key, M in sources.items():
        perm = rng.sample(range(M.n), M.n)
        inputs[key] = formats.serialize_matroid(_relabel(M, perm))
        inputs[key + ".perm"] = perm
    return inputs


def run_cli(argv, stdin_text):
    """One in-process ``turan-matroids`` invocation: (exit code, stdout)."""
    from turan_matroids import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_answer(argv, key):
    def run(inputs):
        code, out = run_cli(argv, inputs[key])
        return {"argv": argv, "code": code, "stdout": out}

    return run


def _parsed(answer, bad):
    """The --json payload of a CLI answer, or None (with the reason in
    ``bad``) when the command failed."""
    import json

    if answer["code"] != 0:
        bad.append(f"{answer['argv'][0]} exited with {answer['code']}")
        return None
    try:
        return json.loads(answer["stdout"])
    except ValueError:
        bad.append(f"{answer['argv'][0]} printed no JSON")
        return None


def check_lagrangian(answer, inputs):
    bad = []
    got = _parsed(answer, bad)
    if got is not None:
        if got.get("certified") is not True:
            bad.append("lagrangian not certified")
        if abs(got.get("value", float("nan")) - float(LAGRANGIAN_PG33)) > LAGRANGIAN_TOL:
            bad.append(f"lagrangian value {got.get('value')} != {float(LAGRANGIAN_PG33)}")
    return bad


def check_minor(answer, inputs):
    bad = []
    got = _parsed(answer, bad)
    if got is not None and got.get("present") is not False:
        bad.append("PG(4,2) reported to have a U(2,4)-minor")
    return bad


def _run_structure(inputs):
    return [
        _cli_answer(["classify", "--json"], "lines77")(inputs),
        _cli_answer(["decompose", "--m", "3", "--parity", "odd", "--json"], "multiline554")(inputs),
        _cli_answer(["cover", "--json"], "pg33")(inputs),
    ]


def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def check_structure(answers, inputs):
    classify, decompose, cover = answers
    bad = []
    got = _parsed(classify, bad)
    if got is not None:
        perm = inputs["lines77.perm"]
        expected = {_mask(perm[e] for e in range(7)), _mask(perm[e] for e in range(7, 14))}
        lines = {_mask(got.get("line1", [])), _mask(got.get("line2", []))}
        if got.get("outcome") != "two-lines" or lines != expected:
            bad.append(f"classify: {got} is not the two 7-point lines")
    got = _parsed(decompose, bad)
    if got is not None:
        cert = got.get("certificate", {})
        if not cert or not all(v is True for v in cert.values()):
            bad.append(f"decompose certificate {cert}")
        parts = [_mask(ln) for ln in got.get("lines", [])] + [_mask(got.get("leftover", []))]
        union = 0
        for p in parts:
            if union & p:
                bad.append("decompose parts overlap")
            union |= p
        if union != (1 << 14) - 1:
            bad.append("decompose parts do not cover the ground set")
    got = _parsed(cover, bad)
    if got is not None and got.get("tau2") != 4:
        bad.append(f"cover {got.get('tau2')} != 4")
    return bad


# ----------------------------------------------------------------- workloads

WORKLOADS = {
    "search": Workload(
        "search",
        _no_inputs,
        (
            _search_op("search_u34", "op1_s", "search_ex", (6, 3, 3, 4), 3, 3, 4, 12),
            _search_op("search_u25", "op2_s", "search_ex", (6, 3, 2, 5), 3, 2, 5, 18),
            # rank 2, no 3-point line: two parallel classes, 3 * 4 bases
            _search_op("search_r2u23", "op3_s", "search_ex", (7, 2, 2, 3), 2, 2, 3, 12),
        ),
    ),
    "rank3": Workload(
        "rank3",
        _no_inputs,
        (
            _search_op("rank3_u35", "op1_s", "search_ex_rank3", (7, 3, 5), 3, 3, 5, 30),
            _search_op("rank3_u24", "op2_s", "search_ex_rank3", (7, 2, 4), 3, 2, 4, 28),
            # U(1,2) + U(2,5): 2 * C(5,2) bases
            _search_op("rank3_u34", "op3_s", "search_ex_rank3", (7, 3, 4), 3, 3, 4, 20),
        ),
    ),
    "pipeline": Workload(
        "pipeline",
        pipeline_setup,
        (
            Op(
                "lagrangian_pg33",
                "op1_s",
                _cli_answer(["lagrangian", "--bound-t", "3", "--json"], "pg33"),
                check_lagrangian,
            ),
            Op(
                "minor_pg42",
                "op2_s",
                _cli_answer(["minor", "--s", "2", "--t", "4", "--json"], "pg42"),
                check_minor,
            ),
            Op("structure", "op3_s", _run_structure, check_structure, units=3),
        ),
    ),
}


def search_counters(answer):
    """The exact report counters of a search answer (empty for CLI ops)."""
    if not isinstance(answer, dict) or "nodes_explored" not in answer:
        return {}
    return {k: answer[k] for k in ("nodes_explored", "pruned_daisy", "pruned_bound")}
