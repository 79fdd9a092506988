"""Command-line entry point.

Matroids flow between subcommands as MATROID v1 text (or the JSON mirror)
on stdin/stdout, so invocations compose into pipelines.  Every subcommand
but ``tables`` (CSV) accepts --json: machine-readable, stable key order.

Exit codes: 0 success, 1 usage or resource errors, 2 reserved for a failed
certificate or theorem check (so falsifications are unmissable in CI).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .bitsets import index_list
from .extremal import (
    DEFAULT_MAX_NODES,
    SearchOptions,
    SearchReport,
    search_binary_max_bases,
    search_ex,
    search_ex_rank3,
    truncation_probe,
    density_rows,
)
from .formats import (
    parse_matroid,
    parse_matroid_file,
    serialize_matroid,
    serialize_matroid_json,
)
from .geometry import (
    bose_burton,
    bose_burton_points,
    projective_geometry,
    projective_points,
    rank3_multiline,
    two_disjoint_lines,
    uniform,
)
from .lagrangian import maximize
from .matroid import MAX_GROUND_SET, Matroid, MatroidError, TheoremViolation, parallel_blowup
from .minors import has_uniform_minor, has_uniform_restriction
from .rank3 import (
    TwoLines,
    classify_u35_free,
    decompose_rank3,
    line_cover_number,
)

USAGE_ERROR = 1
THEOREM_FAILURE = 2


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _read_matroid(args) -> Matroid:
    if args.infile:
        return parse_matroid_file(args.infile)
    return parse_matroid(sys.stdin.read())


def _emit_matroid(M: Matroid, args, comments=()):
    if getattr(args, "json", False):
        print(serialize_matroid_json(M))
    else:
        sys.stdout.write(serialize_matroid(M, comments=comments))


def _print_result(args, payload: dict, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _forbid_pair(text: str) -> tuple[int, int]:
    """The (s, t) of a ``--forbid s,t`` flag."""
    try:
        s, t = (int(x) for x in text.split(","))
    except ValueError:
        raise MatroidError(f"--forbid expects two integers s,t, got {text!r}") from None
    return s, t


def _n_range(text: str) -> range:
    """The n values lo..hi of a ``--n-range lo:hi`` flag."""
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise MatroidError(f"--n-range expects two integers lo:hi, got {text!r}") from None
    if lo > hi:
        raise MatroidError(f"--n-range {text!r} is empty: lo exceeds hi")
    if hi > MAX_GROUND_SET:
        raise MatroidError(f"--n-range {text!r} goes past the largest ground set, {MAX_GROUND_SET}")
    return range(lo, hi + 1)


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-list flag ``flag``; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise MatroidError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_construct(args) -> int:
    comments = ()
    if args.kind == "pg":
        M = projective_geometry(args.r, args.q)
        if args.label_map:
            comments = tuple(
                f"element {i}: {pt}" for i, pt in enumerate(projective_points(args.r, args.q))
            )
    elif args.kind == "bb":
        M = bose_burton(args.r, args.q, args.c)
        if args.label_map:
            comments = tuple(
                f"element {i}: {pt}"
                for i, pt in enumerate(bose_burton_points(args.r, args.q, args.c))
            )
    elif args.kind == "uniform":
        M = uniform(args.s, args.t)
    elif args.kind == "lines":
        M = two_disjoint_lines(args.a, args.b)
    elif args.kind == "multiline":
        sizes = _int_list(args.lines, "--lines")
        M = rank3_multiline(sizes, args.parallel_class, simple_lines=not args.allow_short)
    elif args.kind == "blowup":
        base = _read_matroid(args)
        mult = _int_list(args.mult, "--mult")
        M = parallel_blowup(base, mult)
    _emit_matroid(M, args, comments=comments)
    return 0


def cmd_bases(args) -> int:
    M = _read_matroid(args)
    _print_result(args, {"n": M.n, "r": M.r, "bases": M.basis_count}, [str(M.basis_count)])
    return 0


def cmd_minor(args) -> int:
    M = _read_matroid(args)
    found, witness = has_uniform_minor(M, args.s, args.t)
    payload = {"s": args.s, "t": args.t, "present": found}
    lines = ["present" if found else "absent"]
    if witness is not None:
        payload["contract"] = index_list(witness.contracted)
        payload["restrict_to"] = index_list(witness.selected)
        lines.append(f"contract {payload['contract']} restrict_to {payload['restrict_to']}")
    _print_result(args, payload, lines)
    return 0


def cmd_restriction(args) -> int:
    M = _read_matroid(args)
    found, subset = has_uniform_restriction(M, args.s, args.t)
    payload = {"s": args.s, "t": args.t, "present": found}
    lines = ["present" if found else "absent"]
    if subset is not None:
        payload["subset"] = index_list(subset)
        lines.append(f"subset {payload['subset']}")
    _print_result(args, payload, lines)
    return 0


def cmd_lagrangian(args) -> int:
    if args.precision < 0:
        raise MatroidError(f"precision {args.precision} is negative")
    M = _read_matroid(args)
    res = maximize(
        M,
        tol=args.tol,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
        bound_t=args.bound_t,
    )
    prec = args.precision
    payload = {
        "value": round(res.value, prec),
        "iterations": res.iterations,
        "restarts": res.restarts_used,
        "converged": res.converged,
        "certified": res.certified,
        "argmax": [round(float(x), prec) for x in res.argmax],
    }
    lines = [f"value {res.value:.{prec}f}"]
    if res.bound is not None:
        payload["bound"] = round(res.bound, prec)
        payload["gap"] = round(res.bound - res.value, prec)
        lines.append(f"bound {res.bound:.{prec}f}")
        lines.append(f"gap {res.bound - res.value:.{prec}g}")
        if args.exact_bound and res.exact_bound is not None:
            payload["exact_bound"] = _frac_str(res.exact_bound)
            lines.append(f"exact-bound {_frac_str(res.exact_bound)}")
        if not res.bound_applies:
            payload["bound_applies"] = False
    if res.certified:
        lines.append("certified")
    else:
        lines.append("lower-bound-only" if res.bound_applies else "bound-not-applicable")
    lines.append("argmax " + " ".join(f"{float(x):.{prec}f}" for x in res.argmax))
    _print_result(args, payload, lines)
    return 0


_BOUND_PARAM_NAMES = ("n", "r", "t", "q", "m", "c")  # every bounds evaluator parameter


def _value_output(value: Fraction):
    return {"value": _frac_str(value), "decimal": float(value)}, [
        f"{_frac_str(value)} ~ {float(value):.12f}"
    ]


def _interval_output(interval):
    lo, hi = interval
    payload = {"lower": _frac_str(lo), "upper": _frac_str(hi), "decimal": float((lo + hi) / 2)}
    return payload, [f"interval [{_frac_str(lo)}, {_frac_str(hi)}]", f"~ {float(lo):.12f}"]


def _band_output(band):
    lo, hi, q = band
    payload = {
        "q": q,
        "lower": _frac_str(lo),
        "upper": _frac_str(hi),
        "width_note": "heuristic width",
    }
    return payload, [
        f"q {q}",
        f"lower {_frac_str(lo)} ~ {float(lo):.9f}",
        f"upper {_frac_str(hi)} ~ {float(hi):.9f} (heuristic width)",
    ]


# selectors whose evaluator returns more than one Fraction
_BOUND_OUTPUT = {"euler_product": _interval_output, "prime_band": _band_output}


def cmd_bounds(args) -> int:
    params = {k: getattr(args, k) for k in _BOUND_PARAM_NAMES if getattr(args, k) is not None}
    value = bounds_mod.closed_form(args.selector, **params)
    payload, lines = _BOUND_OUTPUT.get(args.selector, _value_output)(value)
    _print_result(args, {"selector": args.selector, **payload}, lines)
    return 0


def cmd_tables(args) -> int:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if args.kind == "density-u2":
        qs = _int_list(args.q_list, "--q-list")
        if args.max_r < 2:
            raise MatroidError(f"--max-r must be at least 2, got {args.max_r}")
        if not qs or min(qs) < 2:
            raise MatroidError(f"--q-list needs field sizes of at least 2, got {args.q_list!r}")
        writer.writerow(["r", "q", "density", "decimal"])
        for r in range(2, args.max_r + 1):
            for q in qs:
                d = bounds_mod.u2_density(r, q)
                writer.writerow([r, q, _frac_str(d), f"{float(d):.12f}"])
    else:  # kind == "ex"
        s, t = _forbid_pair(args.forbid)
        n_values = _n_range(args.n_range)
        writer.writerow(["n", "r", "s", "t", "max_bases", "binomial", "density", "exhaustive"])
        opts = SearchOptions(max_nodes=args.max_nodes)
        for row in density_rows(args.r, s, t, n_values, opts):
            writer.writerow(
                [
                    row["n"],
                    row["r"],
                    row["s"],
                    row["t"],
                    row["max_bases"],
                    row["binomial"],
                    _frac_str(row["density"]),
                    "yes" if row["exhaustive"] else "no",
                ]
            )
    sys.stdout.write(out.getvalue())
    return 0


def _report_payload(report: SearchReport) -> dict:
    payload = {
        "n": report.n,
        "r": report.r,
        "s": report.s,
        "t": report.t,
        "max_bases": report.max_bases,
        "witness_count": len(report.witnesses),
        "nodes_explored": report.nodes_explored,
        "pruned_daisy": report.pruned_daisy,
        "pruned_bound": report.pruned_bound,
        "exhaustive": report.exhaustive,
    }
    if report.bose_burton_attains is not None:
        payload["bose_burton_attains"] = report.bose_burton_attains
    return payload


def _witness_dir(directory: str) -> None:
    """Create the ``--emit-witnesses`` directory before a search runs, so a
    bad path fails at once and names the flag."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise MatroidError(f"--emit-witnesses {directory}: {exc.strerror}") from exc


def _emit_witnesses(report: SearchReport, directory: str):
    for i, w in enumerate(report.witnesses):
        path = os.path.join(directory, f"witness_{i:03d}.matroid")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_matroid(w))


def cmd_search(args) -> int:
    s, t = _forbid_pair(args.forbid)
    opts = SearchOptions(
        max_nodes=args.max_nodes,
        witness_cap=args.witness_cap,
        rank3_point_cap=args.rank3_point_cap,
    )
    if args.emit_witnesses:
        _witness_dir(args.emit_witnesses)
    if args.backend == "rank3":
        if args.r != 3:
            raise MatroidError("rank3 backend requires --r 3")
        report = search_ex_rank3(args.n, s, t, opts)
    else:
        report = search_ex(args.n, args.r, s, t, opts)
    if args.emit_witnesses:
        _emit_witnesses(report, args.emit_witnesses)
    payload = _report_payload(report)
    lines = [
        f"max_bases {report.max_bases}",
        f"witnesses {len(report.witnesses)}",
        f"nodes {report.nodes_explored} pruned_daisy {report.pruned_daisy}"
        f" pruned_bound {report.pruned_bound}",
        f"exhaustive {'yes' if report.exhaustive else 'no'}",
    ]
    _print_result(args, payload, lines)
    return 0


def cmd_binary_search(args) -> int:
    if args.emit_witnesses:
        _witness_dir(args.emit_witnesses)
    report = search_binary_max_bases(args.r, args.size, witness_cap=args.witness_cap)
    if args.emit_witnesses:
        _emit_witnesses(report, args.emit_witnesses)
    payload = _report_payload(report)
    lines = [
        f"max_bases {report.max_bases}",
        f"subsets_examined {report.nodes_explored}",
        f"bose_burton_attains {report.bose_burton_attains}",
    ]
    _print_result(args, payload, lines)
    return 0


def cmd_decompose(args) -> int:
    M = _read_matroid(args)
    dec = decompose_rank3(M, args.m, args.parity)
    payload = {
        "k": dec.k,
        "lines": [index_list(ln) for ln in dec.lines],
        "leftover": index_list(dec.leftover),
        "certificate": dec.certificate,
    }
    lines = [f"k {dec.k}"]
    lines.extend(f"line {index_list(ln)}" for ln in dec.lines)
    lines.append(f"leftover {index_list(dec.leftover)}")
    lines.append("certificate " + " ".join(f"{k}={v}" for k, v in sorted(dec.certificate.items())))
    _print_result(args, payload, lines)
    return 0


def cmd_classify(args) -> int:
    M = _read_matroid(args)
    outcome = classify_u35_free(M)
    if isinstance(outcome, TwoLines):
        payload = {
            "outcome": "two-lines",
            "line1": index_list(outcome.line1),
            "line2": index_list(outcome.line2),
        }
        lines = ["two-lines", f"line1 {payload['line1']}", f"line2 {payload['line2']}"]
    else:
        payload = {"outcome": "no-u25-minor"}
        lines = ["no-u25-minor"]
    _print_result(args, payload, lines)
    return 0


def cmd_cover(args) -> int:
    M = _read_matroid(args)
    tau = line_cover_number(M)
    _print_result(args, {"tau2": tau}, [str(tau)])
    return 0


def cmd_truncation_probe(args) -> int:
    t = truncation_probe(args.r, args.m, args.q, args.s)
    _print_result(args, {"max_t": t}, [str(t)])
    return 0


def cmd_verify_theorems(args) -> int:
    from .acceptance import run_suite

    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    if getattr(args, "json", False):
        print(
            json.dumps(
                [
                    {"criterion": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                sort_keys=True,
            )
        )
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return THEOREM_FAILURE if failed else 0


def build_parser() -> CliParser:
    parser = CliParser(prog="turan-matroids")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_infile(p):
        p.add_argument("--in", dest="infile", help="matroid file (default: stdin)")

    p = sub.add_parser("construct", help="build a matroid and print it")
    psub = p.add_subparsers(dest="kind", required=True)
    pg = psub.add_parser("pg")
    pg.add_argument("--r", type=int, required=True)
    pg.add_argument("--q", type=int, required=True)
    pg.add_argument("--label-map", action="store_true")
    bb = psub.add_parser("bb")
    bb.add_argument("--r", type=int, required=True)
    bb.add_argument("--q", type=int, required=True)
    bb.add_argument("--c", type=int, required=True)
    bb.add_argument("--label-map", action="store_true")
    un = psub.add_parser("uniform")
    un.add_argument("--s", type=int, required=True)
    un.add_argument("--t", type=int, required=True)
    ln = psub.add_parser("lines")
    ln.add_argument("--a", type=int, required=True)
    ln.add_argument("--b", type=int, required=True)
    ml = psub.add_parser("multiline")
    ml.add_argument("--lines", required=True, help="comma-separated line sizes")
    ml.add_argument("--parallel-class", type=int, default=0)
    ml.add_argument("--allow-short", action="store_true")
    bl = psub.add_parser("blowup")
    bl.add_argument("--mult", required=True, help="comma-separated multiplicities")
    add_infile(bl)
    for kind_parser in (pg, bb, un, ln, ml, bl):
        add_json(kind_parser)
        kind_parser.set_defaults(func=cmd_construct)

    p = sub.add_parser("bases", help="count the bases of a matroid")
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("minor", help="uniform-minor detection")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("restriction", help="uniform-restriction detection")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_restriction)

    p = sub.add_parser("lagrangian", help="maximize the basis polynomial")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=lambda v: int(v, 0), default=0x5EED)
    p.add_argument("--bound-t", type=int, default=None)
    p.add_argument("--exact-bound", action="store_true")
    p.add_argument("--precision", type=int, default=12)
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_lagrangian)

    p = sub.add_parser("bounds", help="exact rational bound evaluators")
    p.add_argument("selector", choices=list(bounds_mod.CLOSED_FORMS))
    for name in _BOUND_PARAM_NAMES:
        p.add_argument(f"--{name}", type=int, default=None)
    add_json(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tables", help="CSV tables of densities or search results")
    p.add_argument("--kind", choices=["density-u2", "ex"], default="density-u2")
    p.add_argument("--max-r", type=int, default=6)
    p.add_argument("--q-list", default="2,3,4,5")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--forbid", default="2,3")
    p.add_argument("--n-range", default="2:6")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("search", help="exact extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--forbid", required=True, help="s,t")
    p.add_argument("--backend", choices=["generic", "rank3"], default="generic")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--witness-cap", type=int, default=16)
    p.add_argument("--rank3-point-cap", type=int, default=7)
    p.add_argument("--emit-witnesses", default=None, help="directory for witness files")
    add_json(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("binary-search", help="max bases over GF(2) vector subsets")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--witness-cap", type=int, default=16)
    p.add_argument("--emit-witnesses", default=None)
    add_json(p)
    p.set_defaults(func=cmd_binary_search)

    p = sub.add_parser("decompose", help="rank-3 greedy line decomposition")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--parity", choices=["odd", "even"], required=True)
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="two-lines / no-U25-minor dichotomy")
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cover", help="exact 2-covering number")
    add_infile(p)
    add_json(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("truncation-probe", help="largest uniform minor after truncation")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_truncation_probe)

    p = sub.add_parser("verify-theorems", help="run the acceptance suite")
    p.add_argument("--suite", default="all")
    add_json(p)
    p.set_defaults(func=cmd_verify_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except TheoremViolation as exc:
        print(f"THEOREM CHECK FAILED: {exc}", file=sys.stderr)
        return THEOREM_FAILURE
    except (MatroidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
