"""Benchmark entry point.

    python3 bench/run.py --workload {search,rank3,pipeline} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (bench/worker.py), one at a time, so no cache in the
program can carry an answer from one pass to the next and every pass pays
set-up again.  The children see the library defaults only: the node-budget
environment variable is removed, and BLAS runs one thread.

--trace 0 repeats untraced passes while another one still ends within
--seconds, at least three times, and prints the end-to-end metrics.
--trace 1 alternates untraced and traced passes, at least two of each, and
prints the per-layer metrics, including the tracing overhead.  Answers are
checked after every pass; the exact counters must repeat between passes
and between the traced and untraced passes.  The last line of stdout is
the JSON result; the full record (environment, revision, every pass) goes
to .bench_build/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "turan_matroids")
WORKER = os.path.join(HERE, "worker.py")
BUILD_DIR = os.path.join(ROOT, ".bench_build")

sys.path.insert(0, HERE)
from workloads import SLOTS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11  # set-up is measured at least this often per run
MIN_PASSES = 3  # untraced passes per run, even when they overrun --seconds
MIN_TRACED_PASSES = 2  # call counts must repeat between traced passes
TIME_LIMIT_S = 170.0  # a run ends well within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
) + tuple((slot, "s") for slot in SLOTS)

# Wrapped functions and the per-layer fields reported for each.
LAYER_FIELDS = (
    ("hypergraphs.daisy_completed_by_edge", ("calls", "self_s", "hit_ratio")),
    ("hypergraphs.has_daisy", ("calls", "self_s")),
    ("matroid.exchange_violation", ("calls", "self_s", "pairs")),
    ("matroid.rank_of", ("calls", "self_s", "bases_scanned")),
    ("matroid.closure", ("calls", "self_s")),
    ("matroid.simplify", ("self_s",)),
    ("minors.has_uniform_restriction", ("calls", "self_s", "found_ratio")),
    ("minors.has_uniform_minor", ("calls", "self_s")),
    ("geometry.rank3_from_lines", ("calls", "self_s")),
    ("geometry.lines_of", ("calls", "self_s")),
    ("lagrangian.poly_gradient", ("calls", "self_s")),
    ("lagrangian.poly_eval", ("calls", "self_s")),
    ("lagrangian.maximize", ("self_s",)),
    ("canonical.are_isomorphic", ("calls", "self_s")),
    ("canonical.canonical_bases", ("calls", "self_s")),
    ("formats.parse_matroid", ("self_s",)),
    ("formats.serialize_matroid", ("self_s",)),
    ("rank3.classify_u35_free", ("self_s",)),
    ("rank3.decompose_rank3", ("self_s",)),
    ("rank3.line_cover_number", ("self_s",)),
    ("extremal.search_ex", ("self_s",)),
    ("extremal.search_ex_rank3", ("self_s",)),
    ("cli.main", ("self_s",)),
)
# a ratio divides a boundary counter of the tracer by the function's calls
RATIOS = {"hit_ratio": "hits", "found_ratio": "found"}
SEARCH_OPS = tuple(
    op.name for name in ("search", "rank3") for op in WORKLOADS[name].ops
)
COUNTERS = ("nodes_explored", "pruned_daisy", "pruned_bound")


def _field_unit(field: str) -> str:
    if field == "self_s":
        return "s"
    if field.endswith("_ratio"):
        return "ratio"
    return "count"


PER_LAYER = (
    tuple(
        (f"{fn}.{field}", _field_unit(field)) for fn, fields in LAYER_FIELDS for field in fields
    )
    + tuple((f"extremal.{op}.{c}", "count") for op in SEARCH_OPS for c in COUNTERS)
    + (("trace.overhead_s", "s"), ("trace.spans", "count"))
)


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("TURAN_MATROID_MAX_NODES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, a revision id without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def consistency_problems(passes, label):
    """Answers and exact counters must be identical in every pass."""
    problems = []
    first = passes[0]
    for other in passes[1:]:
        for a, b in zip(first["ops"], other["ops"]):
            if a["answer"] != b["answer"]:
                problems.append(f"{label}: answer of {a['name']} differs between passes")
            if a["counters"] != b["counters"]:
                problems.append(
                    f"{label}: counters of {a['name']} differ: {a['counters']} vs {b['counters']}"
                )
    return problems


def end_to_end_metrics(passes, setups):
    """Set-up and memory are medians.  Operation times are means over the
    passes: a shared machine can alternate between a fast and a slow CPU
    speed, and over three to six passes a median jumps between the two levels
    while the mean follows the share of time spent at each.  On a shared
    2-vCPU Intel Xeon VM, ten runs of unchanged code spread by 0.10-0.18 of
    the median with means and by 0.11-0.26 with medians."""
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for slot in SLOTS:
        metrics[slot] = statistics.fmean(
            sum(op["seconds"] for op in p["ops"] if op["slot"] == slot) for p in passes
        )
    return metrics


def per_layer_metrics(untraced, traced):
    problems = []
    calls = traced[0]["trace"]["calls"]
    extra = traced[0]["trace"]["extra"]
    for p in traced[1:]:
        if p["trace"]["calls"] != calls or p["trace"]["extra"] != extra:
            problems.append("traced call counts differ between passes")
    metrics = {}
    for fn, fields in LAYER_FIELDS:
        for field in fields:
            key = f"{fn}.{field}"
            if field == "calls":
                value = calls[fn]
            elif field == "self_s":
                value = statistics.median(p["trace"]["self_s"][fn] for p in traced)
            elif field in RATIOS:
                hits = extra[f"{fn}.{RATIOS[field]}"]
                value = hits / calls[fn] if calls[fn] else 0.0
            else:
                value = extra[key]
            metrics[key] = value
    counters = {op["name"]: op["counters"] for op in untraced[0]["ops"]}
    for op in SEARCH_OPS:
        for c in COUNTERS:
            metrics[f"extremal.{op}.{c}"] = counters.get(op, {}).get(c, 0)
    metrics["trace.overhead_s"] = statistics.fmean(
        p["wall_s"] for p in traced
    ) - statistics.fmean(p["wall_s"] for p in untraced)
    metrics["trace.spans"] = traced[0]["trace"]["spans"]
    return metrics, problems


def repeat(variants, minimum, start, seconds, deadline):
    """Rounds of one pass per argument list in ``variants``, until another
    round would end after ``seconds`` from ``start`` (at least ``minimum``
    rounds), so a run measures about --seconds.  Returns the passes of each
    variant."""
    out = [[] for _ in variants]
    begun = time.monotonic()
    rounds = 0
    while True:
        for args, passes in zip(variants, out):
            passes.append(run_worker(args, deadline))
        rounds += 1
        now = time.monotonic()
        per_round = (now - begun) / rounds
        if now + per_round > deadline - 10:
            break
        if rounds >= minimum and now + per_round > start + seconds:
            break
    return out


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    # the first interpreter compiles the package's bytecode; that one-off
    # cost is not set-up time, so this probe is not counted
    run_worker(base + ["--setup-only"], deadline)
    start = time.monotonic()
    if not trace:
        (passes,) = repeat([base], MIN_PASSES, start, seconds, deadline)
        traced = []
    else:
        # untraced and traced passes alternate, so that a drift in machine
        # speed does not show up as tracing overhead
        spans = os.path.join(BUILD_DIR, "traces", f"{workload}.npz")
        passes, traced = repeat(
            [base, base + ["--trace", "--spans", spans]],
            MIN_TRACED_PASSES,
            start,
            seconds,
            deadline,
        )
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(base + ["--setup-only"], deadline)["setup_s"])

    everything = passes + traced
    problems = consistency_problems(everything, workload)
    for p in everything:
        for op in p["ops"]:
            problems.extend(f"{op['name']}: {msg}" for msg in op["failures"])
    attempted = sum(op["units"] for p in everything for op in p["ops"])
    failed = sum(op["failed_units"] for p in everything for op in p["ops"])

    if trace:
        if len(traced) < MIN_TRACED_PASSES:
            problems.append(f"only {len(traced)} traced pass(es) fit in the time limit")
        metrics, more = per_layer_metrics(passes, traced)
        problems.extend(more)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(passes, setups)
        units = dict(END_TO_END)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "env": passes[0]["env"],
        "setup_samples": setups,
        "passes": everything,
        "problems": problems,
        "metrics": metrics,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no package sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    path = os.path.join(
        BUILD_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = dict(record["env"], git_revision=record["git_revision"],
               source_sha256=record["source_sha256"], seed=args.seed)
    print("environment " + json.dumps(env, sort_keys=True), file=sys.stderr)
    for problem in record["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
