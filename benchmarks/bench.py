"""shardlab benchmark: one workload per run, metrics on the last line of stdout.

    python3 benchmarks/bench.py --workload epoch_n120_garbage --seed 1 --seconds 14 --trace 0

With `--trace 0` the run measures the end-to-end metrics with tracing off:
set-up time (median of several fresh processes, each importing the library
and setting the workload up), the median and tail latency of one operation
(an epoch, or a verdict on sweep_rank), operations per second and peak
resident memory. With `--trace 1` it reports per-layer metrics from spans
recorded around every call into shardlab's modules, and the tracing overhead.
Times are scaled to the speed of a fixed reference loop timed throughout the
run (see workloads.Reference), because the speed of a shared machine drifts.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it carries provenance and the same numbers under their
operation-specific names (epoch_ms_p50, verdicts_per_s, ...), the stated tail
percentile, ops_failed_frac and the raw wall-clock values. Both are also
written, with the spans of a traced run, to benchmarks/results/.

The library is imported from ../src relative to this file; the run exits 2
without a result when that is missing.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7


def use_repo_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False when it has no shardlab."""
    if not (SRC / "shardlab" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set the workload up, print the set-up time and exit")
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, reference) -> list[float]:
    """Set-up time of the workload in fresh interpreters, once per probe, with
    a reference sample after each. Each probe times itself from the start of
    this script (interpreter start-up excluded) to the end of the set-up, and
    is waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
        reference.sample()
    return samples


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def provenance(seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(op: str, untraced, setup: list[float], setup_reference) -> tuple[dict, dict]:
    """(contract metrics, the same under operation-specific names + extras).

    Times are scaled to the reference speed (see workloads.Reference); the
    detail keeps the raw wall-clock values and the scales.
    """
    from workloads import median, percentile_tail

    stats = untraced.stats
    scaled = untraced.scaled_latencies()
    scale = sum(scaled) / sum(stats.latencies)
    q, tail = percentile_tail(scaled)
    _, raw_tail = percentile_tail(stats.latencies)
    p50_ms = median(stats.latencies) * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = statistics.median(setup)
    values = {
        "op_ms_p50": (median(scaled) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "ops_per_s": (untraced.ops_per_s / scale, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s * setup_reference.scale, "s"),
    }
    metrics = {name: metric(*value) for name, value in values.items()}
    named = {
        f"{op}_ms_p50": metrics["op_ms_p50"],
        f"{op}_ms_tail": {**metrics["op_ms_tail"], "percentile": q},
        f"{op}s_per_s": metrics["ops_per_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "setup_s": metrics["setup_s"],
        "ops_failed_frac": metric(stats.failed / stats.attempted, "ratio"),
    }
    raw = {
        f"{op}_ms_p50": p50_ms,
        f"{op}_ms_tail": raw_tail * 1e3,
        f"{op}s_per_s": untraced.ops_per_s,
        "setup_s": setup_s,
        "setup_samples_s": setup,
        "reference_scale": scale,
        "setup_reference_scale": setup_reference.scale,
        "reference_probes": len(untraced.reference.samples),
    }
    detail = {"samples": len(stats.latencies), "passes": untraced.passes,
              "timed_wall_s": untraced.wall_s, "wall_clock": raw}
    return metrics, {"metrics": named, **detail}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_repo_sources():
        print(f"bench: no shardlab sources at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workloads.prepare(workload, args.seed)
        print(perf_counter() - STARTED)
        return 0

    tag = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    if not args.trace:
        setup_reference = workloads.Reference()
        setup = setup_seconds(workload.name, args.seed, setup_reference)
    with workloads.prepare(workload, args.seed) as run:
        if args.trace:
            traced = workloads.measure_traced(run, args.seconds)
        else:
            untraced = workloads.measure_untraced(run, args.seconds)

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        stats = traced.stats
        metrics = {
            name: metric(traced.metrics[name], unit)
            for name, (unit, _better) in workloads.PER_LAYER.items()
        }
        spans_path = RESULTS / f"SPANS_{tag}.jsonl"
        traced.tracer.write_spans(spans_path)
        op = workload.op
        detail = {
            "traced_repeats": traced.repeats,
            "counts_repeat_exactly": not traced.mismatched,
            "ops_failed_frac": metric(stats.failed / stats.attempted, "ratio"),
            "tracing_overhead": {
                f"{op}s_per_s_untraced": metrics["trace.ops_per_s_untraced"],
                f"{op}s_per_s_traced": metrics["trace.ops_per_s_traced"],
                "overhead_pct": metrics["trace.overhead_pct"],
            },
            "reference_scale": traced.scale,
            "spans": spans_path.name,
        }
        if traced.mismatched:
            stats.problems.append(f"counts differ between repeats: {traced.mismatched}")
        correct = stats.failed == 0 and not traced.mismatched
    else:
        stats = untraced.stats
        metrics, detail = end_to_end(workload.op, untraced, setup, setup_reference)
        correct = stats.failed == 0
    detail = {"workload": workload.name, "trace": args.trace,
              "provenance": provenance(args.seed), **detail,
              "problems": stats.problems}
    result = {"correct": correct, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    (RESULTS / f"BENCH_{tag}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n")
    for problem in stats.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
