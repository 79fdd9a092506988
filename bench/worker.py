"""One pass of a workload in a fresh interpreter.

Usage (normally started by run.py, from the root of a checkout):

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]
        [--spans PATH]

Times set-up (importing the package and making the inputs), then each
operation of the workload once, then checks every answer outside the timed
region.  With --trace the layer wrappers are installed right after the
import and the pass reports per-function call counts and self times.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
    }


def _digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the recorded spans")
    args = ap.parse_args(argv)

    import turan_matroids  # noqa: F401
    import turan_matroids.cli  # noqa: F401

    from workloads import WORKLOADS, search_counters

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.reset()
    ops = []
    answers = []
    pass_start = time.perf_counter()
    for op_id, op in enumerate(workload.ops, start=1):
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            answer, error = op.run(inputs), None
        except Exception as exc:  # an operation that raises counts as failed
            answer, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.op = 0
        answers.append((answer, error))
        ops.append({"name": op.name, "slot": op.slot, "seconds": seconds, "units": op.units})
    wall_s = time.perf_counter() - pass_start
    spans = len(tracer.starts) if tracer is not None else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, rec, (answer, error) in zip(workload.ops, ops, answers):
        if error is None:
            try:
                bad = op.check(answer, inputs)
            except Exception as exc:  # a malformed answer fails its gate
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            bad = [error]
        rec["failures"] = bad
        rec["failed_units"] = op.units if error else min(op.units, len(bad))
        rec["answer"] = _digest(answer)
        rec["counters"] = search_counters(answer)

    out.update(
        wall_s=wall_s,
        ops=ops,
        peak_rss_mb=peak_rss_mb,
        env=_environment(),
    )
    if tracer is not None:
        calls, self_s = tracer.summary()
        out["trace"] = {
            "calls": calls,
            "self_s": self_s,
            "extra": dict(tracer.extra),
            "spans": spans,
        }
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
