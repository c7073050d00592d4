"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports the package from ``src/``
there.  One process runs one workload: it times the set-up of the fixed
inputs, then runs whole rounds of operations for at least S seconds and
checks every output.  With ``--trace 0`` it reports the end-to-end
metrics.  With ``--trace 1`` it runs that untraced phase, then the set-up
and the same rounds again with every layer wrapped, and reports the
per-layer metrics and the tracing overhead (traced minus untraced op_s).

Times are scaled to a reference machine speed by the speed probes the
single-threaded work takes between its operations (``speed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The same object, with a record
of the run's environment and the raw wall times, goes to
``bench/results/``.
"""
import os
import sys

# Pinned before numpy loads: one BLAS thread, so timings do not depend on
# how many cores OpenBLAS finds free.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


SETUP_SECONDS = 1.5
SETUP_MIN_REPEATS = 5


def timed_setup(workload):
    """Median wall time of the workload's set-up, raw and scaled, and its
    inputs.

    One untimed call first fills caches and lazy state.  The timed calls
    then repeat for at least SETUP_SECONDS, each followed by a speed probe,
    since one set-up of a few milliseconds reads mostly the machine's
    momentary speed.
    """
    inputs = workload.setup()
    probe = speed.SpeedProbe()
    times, scaled = [], []
    begin = time.perf_counter()
    while (len(times) < SETUP_MIN_REPEATS
           or time.perf_counter() - begin < SETUP_SECONDS):
        start = time.perf_counter()
        inputs = workload.setup()
        times.append(time.perf_counter() - start)
        since = len(probe.times)
        probe.sample()
        scaled.append(times[-1] * probe.scale(since))
    return statistics.median(scaled), statistics.median(times), inputs


def run_phase(workload, state, seconds, trace):
    """Whole rounds until ``seconds`` have passed.

    Returns the ops, the seconds they took (the phase's wall time less
    its speed probes) and the phase's probe.
    """
    ops = []
    probe = speed.SpeedProbe()
    start = time.perf_counter()
    while True:
        ops.extend(workload.run_round(state, trace, probe))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return ops, elapsed - probe.total, probe


def end_to_end(ops, busy, setup_s):
    """The end-to-end metrics, with every time scaled.

    The phase's busy time is scaled by its operations' scales, weighted
    by their wall times.
    """
    queries = [op.queries for op in ops if op.queries is not None]
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    scale = (sum(op.wall * op.scale for op in ops)
             / sum(op.wall for op in ops))
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (statistics.median(op.wall * op.scale for op in ops), "s"),
        "ops_per_s": (len(ops) / (busy * scale), "1/s"),
        "queries_per_solve": (sum(queries) / len(queries), "queries"),
        "peak_rss_mb": (sum(usage) / 1024.0, "MB"),   # ru_maxrss is in KiB
    }


def raw_times(ops, busy, probe, setup_raw):
    """The timed metrics as measured, before scaling, for the result file."""
    return {
        "setup_s": setup_raw,
        "op_s": statistics.median(op.wall for op in ops),
        "ops_per_s": len(ops) / busy,
        "op_walls": [op.wall for op in ops],
        "op_scales": [op.scale for op in ops],
        "probe_times": probe.times,
    }


def per_layer(ops, trace_totals, overhead):
    import tracing

    spans, counts = trace_totals["spans"], trace_totals["counts"]
    out = {}
    for name in tracing.LAYER_NAMES:
        calls, total, child = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (total - child, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    out["ptum.prune_confidence_set.eliminating_ratio"] = (
        ratio(counts["prune_eliminating"], counts["prune_calls"]), "ratio")
    out["spectral.spectral_estimate.raised"] = (counts["spectral_raised"], "count")
    out["spectral.estimates_used_ratio"] = (
        ratio(counts["estimates_used"], counts["estimates"]), "ratio")
    swept = [op for op in ops if op.cpu is not None]
    out["harness.sweep.wait_share"] = (
        1.0 - ratio(sum(op.cpu for op in swept), sum(op.wall for op in swept))
        if swept else 0.0, "ratio")
    out["trace.overhead_op_s"] = (overhead, "s")
    return out


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, attempted, failed):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SEQTRANSFER_THREADS": os.environ.get("SEQTRANSFER_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqtransfer").is_dir():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    os.environ["SEQTRANSFER_THREADS"] = str(workload.sweep_threads)

    setup_s, setup_raw, inputs = timed_setup(workload)
    state = workload.prepare(inputs)
    ops, busy, probe = run_phase(workload, state, args.seconds, trace=False)
    metrics = end_to_end(ops, busy, setup_s)
    raw = raw_times(ops, busy, probe, setup_raw)
    all_ops = list(ops)
    if args.trace:
        with tracing.session() as tracer:
            traced, _, _ = run_phase(workload,
                                     workload.prepare(workload.setup()),
                                     args.seconds, trace=True)
            totals = tracer.take()
        for op in traced:
            if op.spans is not None:
                tracing.merge(totals, op.spans)
        overhead = (statistics.median(op.wall * op.scale for op in traced)
                    - metrics["op_s"][0])
        untraced, metrics = metrics, per_layer(traced, totals, overhead)
        all_ops += traced

    problems = [p for op in all_ops for p in op.problems]
    problems += workload.finish(all_ops)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(all_ops)
    failed = sum(op.failed for op in all_ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    document = dict(result, record=run_record(args, attempted, failed),
                    raw=raw)
    if args.trace:
        document["untraced"] = {name: {"value": value, "unit": unit}
                                for name, (value, unit) in untraced.items()}
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / (f"{args.workload}_seed{args.seed}_trace{args.trace}"
                         f"_{time.time_ns()}.json")
    out.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
