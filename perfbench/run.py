"""The repo benchmark: one workload, timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-zoo --seed 1 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (reporting the median as
``setup_s``; at least three times and two seconds), then repeats it until ``--seconds`` have passed and reports
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
repetitions (spans around the program's layer entry points, see
``tracer.py``) and reports the per-layer split of one repetition plus the
tracing overhead.  Either way every output check runs,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

# Pin the BLAS pool before numpy loads (``workloads`` imports it): OpenBLAS
# otherwise starts one thread per core, and runs of two commits would not
# be like for like.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)
sys.dont_write_bytecode = True  # leave the checkout's bytecode untouched

ROOT = Path(__file__).resolve().parent.parent
# Set up at least this often and for at least this long; report the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND_TAIL = 10

# Per-layer metrics of a traced run, per repetition: (name, unit).
LAYER_COUNTERS = (
    ("nn.grad_calls", "count"),
    ("attacks.reconstructions", "count"),
    ("defense.expanded_images", "count"),
    ("fl.fleet.materialized", "count"),
    ("fl.arrivals.dispatched", "count"),
    ("fl.arrivals.unavailable", "count"),
    ("fl.engine.fresh", "count"),
    ("fl.engine.late", "count"),
    ("sweep.cells_cached", "count"),
    ("sweep.cells_computed", "count"),
    ("sweep.store_bytes", "bytes"),
)
LAYER_RATIOS = (
    # name, numerator counter, denominator counter
    ("metrics.scored_ratio", "metrics.scored", "attacks.reconstructions"),
    ("fl.secagg.survivor_ratio", "fl.secagg.survivors", "fl.secagg.committed"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in percent)."""
    ordered = sorted(values)
    rank = max(math.ceil(share / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples beyond)``, or None when the run
    has too few samples for any percentile in :data:`TAIL_PERCENTILES`.
    """
    for share in TAIL_PERCENTILES:
        beyond = len(values) - max(math.ceil(share / 100.0 * len(values)), 1)
        if beyond >= MIN_BEYOND_TAIL:
            return share, percentile(values, share), beyond
    return None


def _git_revision() -> str:
    """HEAD of the checkout, read without starting git; "" outside a repo."""
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
    return ""


def _source_digest() -> str:
    """Digest of every file under ``src/``: the revision when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _process_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment() -> dict:
    import numpy
    from repro.tensor import backend

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "process_threads": _process_threads(),
        "kernel_mode": backend.kernel_mode(),
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
    }


def run_reps(workload, first_index: int, budget_s: float, minimum: int):
    """Repeat ``workload`` until ``budget_s`` has passed (at least ``minimum``)."""
    reps = []
    start = perf_counter()
    while len(reps) < minimum or perf_counter() - start < budget_s:
        gc.collect()  # each repetition starts without the last one's garbage
        reps.append(workload.rep(first_index + len(reps)))
    return reps


def run_pairs(workload, tracer, budget_s: float):
    """Alternate untraced and traced repetitions until ``budget_s`` has
    passed (at least two pairs), so the host's drift hits both sides alike.

    Returns the untraced and traced repetitions and, per traced one, its
    (self time per layer, counters).
    """
    from tracer import installed

    untraced, traced, splits = [], [], []
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < budget_s:
        gc.collect()
        untraced.append(workload.rep(2 * len(traced)))
        index = 2 * len(traced) + 1
        tracer.trace_id = index
        tracer.reset_totals()
        gc.collect()
        with installed(tracer):
            rep = workload.rep(index)
        counts = dict(tracer.counts)
        if "sweep.store_bytes" in rep.counts:
            counts["sweep.store_bytes"] = rep.counts["sweep.store_bytes"]
        traced.append(rep)
        splits.append((dict(tracer.self_time), counts))
    return untraced, traced, splits


def output_checks(reps, splits) -> dict:
    """Named pass/fail results of every output check of the run."""
    checks = {}
    for index, rep in enumerate(reps):
        for name, passed in rep.checks.items():
            checks[f"rep{index}.{name}"] = bool(passed)
    fingerprints = {rep.fingerprint for rep in reps}
    checks["outputs_identical_across_repetitions"] = len(fingerprints) == 1
    if splits:
        first = splits[0][1]
        checks["counters_repeat"] = all(counts == first for _, counts in splits)
        traced = reps[-len(splits):]
        checks["counters_match_outputs"] = all(
            counts.get(name, 0) == value
            for rep, (_, counts) in zip(traced, splits)
            for name, value in rep.counts.items()
        )
    return checks


def layer_metrics(splits, traced_walls, untraced_walls, span_count) -> tuple:
    """Per-repetition layer metrics and the ``{wall, layers, unattributed}``
    block of the traced repetitions."""
    from tracer import LAYER_NAMES

    count = len(splits)
    layers = {
        name: sum(times.get(name, 0.0) for times, _ in splits)
        for name in LAYER_NAMES
    }
    wall = sum(traced_walls)
    totals = {}
    for _, counts in splits:
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value
    metrics = {
        f"{name}_s": {"value": seconds / count, "unit": "s"}
        for name, seconds in layers.items()
    }
    for name, unit in LAYER_COUNTERS:
        metrics[name] = {"value": totals.get(name, 0) / count, "unit": unit}
    for name, numerator, denominator in LAYER_RATIOS:
        bottom = totals.get(denominator, 0)
        metrics[name] = {
            "value": totals.get(numerator, 0) / bottom if bottom else 0.0,
            "unit": "ratio",
        }
    unattributed = wall - sum(layers.values())
    overhead = statistics.median(
        traced - untraced for traced, untraced in zip(traced_walls, untraced_walls)
    )
    metrics["trace.wall_s"] = {"value": wall / count, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": unattributed / count, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.spans"] = {"value": span_count / count, "unit": "count"}
    block = {
        "wall": wall,
        "layers": layers,
        "unattributed": unattributed,
        "repetitions": count,
        "untraced_rep_wall_median": statistics.median(untraced_walls),
        "traced_rep_wall_median": statistics.median(traced_walls),
        "overhead_s": overhead,  # median of traced minus untraced, pairwise
    }
    return metrics, block


def end_to_end_metrics(workload, reps, setup_times) -> tuple:
    latencies = [value for rep in reps for value in rep.latencies_s]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_per_s": {
            "value": sum(rep.units for rep in reps) / sum(rep.wall_s for rep in reps),
            "unit": "1/s",
        },
        "latency_p50_ms": {
            "value": 1e3 * statistics.median(latencies),
            "unit": "ms",
        },
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }
    notes = {
        "repetitions": len(reps),
        "throughput": f"{workload.unit}_per_s",
        "latency_samples": len(latencies),
        "latency_of": workload.latency_of,
        "tail": tail(latencies),
    }
    return metrics, notes


def report(name, workload, metrics, notes, attempted, failed, checks) -> None:
    print(f"workload {name}")
    for metric, entry in metrics.items():
        label = notes["throughput"] if metric == "throughput_per_s" else metric
        print(f"  {label:<32} {entry['value']:.6g} {entry['unit']}")
    print(
        f"  {notes['repetitions']} untraced repetitions; {workload.latency_of} "
        f"latency p50 over {notes['latency_samples']} samples"
    )
    if notes["tail"] is None:
        print("  tail: fewer than 10 samples beyond any reported percentile")
    else:
        share, value, beyond = notes["tail"]
        print(
            f"  {workload.latency_of}_latency_tail_ms p{share:g} "
            f"{1e3 * value:.6g} ms ({beyond} of {notes['latency_samples']} "
            "samples beyond)"
        )
    print(f"  failed_fraction {failed}/{attempted} = {failed / attempted:.6g}")
    for check, passed in checks.items():
        if not passed:
            print(f"  CHECK FAILED: {check}")


def report_layers(block) -> None:
    """Self time per repetition and share of the traced wall, largest first."""
    count, wall = block["repetitions"], block["wall"]
    print(f"  per-layer self time, mean of {count} traced repetitions:")
    rows = sorted(block["layers"].items(), key=lambda item: -item[1])
    rows.append(("unattributed", block["unattributed"]))
    for name, seconds in rows:
        if seconds:
            print(f"    {name:<24} {1e3 * seconds / count:10.2f} ms {seconds / wall:7.1%}")
    overhead = block["overhead_s"]
    untraced = block["untraced_rep_wall_median"]
    print(
        f"  tracing overhead {1e3 * overhead:.1f} ms per repetition "
        f"({overhead / untraced:+.1%} of the untraced median)"
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    factory = WORKLOADS[args.workload]
    output = ROOT / ".perfbench"
    workdir = output / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        workload = None
        while (
            len(setup_times) < SETUP_MIN_REPEATS
            or sum(setup_times) < SETUP_MIN_SECONDS
        ):
            if workload is not None:
                workload.close()
            gc.collect()
            start = perf_counter()
            workload = factory(args.seed, workdir)
            setup_times.append(perf_counter() - start)
        try:
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
                untraced, traced, splits = run_pairs(
                    workload, tracer, args.seconds
                )
            else:
                untraced = run_reps(workload, 0, args.seconds, 1)
                traced, splits = [], []
        finally:
            workload.close()
        reps = untraced + traced
        checks = output_checks(reps, splits)
        attempted = sum(rep.units for rep in reps) + len(checks)
        failed = sum(rep.failed_units for rep in reps) + sum(
            not passed for passed in checks.values()
        )
        metrics, notes = end_to_end_metrics(factory, untraced, setup_times)
        report(args.workload, factory, metrics, notes, attempted, failed, checks)
        if args.trace:
            metrics, block = layer_metrics(
                splits,
                [rep.wall_s for rep in traced],
                [rep.wall_s for rep in untraced],
                len(tracer.spans),
            )
            report_layers(block)
            spans_path = output / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
            print(json.dumps({"trace": {"workload": args.workload, **block}}))
        print(json.dumps({"environment": environment()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            output.rmdir()  # only when no spans were written
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
