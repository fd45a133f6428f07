"""Closed-loop benchmark of the ``demoire`` command line, one client, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload bench-ongrid-256 --seed 1 --seconds 35 --trace 0

Set-up writes the workload's inputs from ``--seed``; the timed loop then calls
``demoire.cli.main`` in-process, one op after another, for ``--seconds``
seconds and checks every op's outputs. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced and
prints the per-module metrics. The last line of standard output is one JSON
object; a full report (and, when traced, every span) is written to
``perfbench/out/``. See ``perfbench/NOTES.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("bench-ongrid-256", "denoise-offgrid", "spatial-256")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``demoire`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "demoire" / "cli.py").is_file():
        raise SystemExit(f"error: no demoire sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import demoire.cli

    if Path(demoire.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: imported demoire from {demoire.cli.__file__}, not from {src}")
    return demoire.cli


def time_import() -> float:
    """Wall time of a fresh interpreter importing the command line.

    Every ``demoire`` command pays this; a subprocess lets set-up repeat it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import demoire.cli"], env=env, check=True)
    return time.perf_counter() - t0


def measure(cli, workload, seconds: float, op_ids, tracer=None) -> dict:
    """Run whole op groups until ``seconds`` have passed; check every op."""
    from workloads import CheckError

    latencies: list[float] = []
    keys: list[str] = []
    failures: list[str] = []
    if tracer is not None:
        from spans import OpRecord

        tracer.install()
    groups = workload.groups()
    started = time.perf_counter()
    try:
        while time.perf_counter() - started < seconds:
            for op in next(groups):
                if tracer is not None:
                    tracer.ops.append(OpRecord(next(op_ids), op.cases, op.sinusoids))
                    span = tracer.begin("cli.main")
                t0 = time.perf_counter()
                try:
                    rc = cli.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an op that raises is a failed op, not a crashed run
                    traceback.print_exc()
                    rc = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(span)
                    tracer.ops[-1].latency_s = latency
                latencies.append(latency)
                keys.append(op.key)
                try:
                    workload.check(op, rc)
                except (CheckError, OSError, ValueError, IndexError) as exc:
                    failures.append(f"{op.key}: {exc}")
        elapsed = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"latencies": latencies, "keys": keys, "failures": failures, "elapsed": elapsed}


def harrell_davis_median(ordered: list[float]) -> float:
    """Harrell-Davis estimate of the median of sorted samples.

    A Beta((n+1)/2, (n+1)/2)-weighted mean of all order statistics. The
    spatial workload's latencies are bimodal with equal masses (three fast
    filters, three slow), so the plain median is the mean of two extremes, the
    slowest fast op and the fastest slow op; this estimate averages the
    order statistics on both sides of the gap instead.
    """
    n = len(ordered)
    a = (n + 1) / 2.0
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 64 * n
    # Midpoint-rule integral of the Beta density over each order statistic's slice.
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(x * (1.0 - x))) / steps
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it.

    With 20 samples or fewer that percentile would sit at or below the
    median, so the tail falls back to the median sample and records it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, (n - 1) // 2)
    return {
        "p50": harrell_davis_median(ordered),
        "p50_plain": statistics.median(ordered),
        "tail": ordered[idx],
        "tail_pct": 100.0 * (idx + 1) / n,
        "tail_beyond": n - 1 - idx,
        "n": n,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    # Load hygiene: one process, one client, BLAS threads pinned to the cores
    # this process may use. Must happen before numpy is imported.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)

    cli = import_program()
    import numpy

    import workloads

    import_runs = [time_import() for _ in range(SETUP_REPEATS)]

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            workload.setup()
            setup_runs.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

        op_ids = itertools.count()
        if args.trace:
            from spans import Tracer, aggregate

            plain = measure(cli, workload, args.seconds / 2, op_ids)
            tracer = Tracer()
            traced = measure(cli, workload, args.seconds / 2, op_ids, tracer)
            phases = [plain, traced]
        else:
            phases = [measure(cli, workload, args.seconds, op_ids)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": nproc,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "outputs_sha256": workload.outputs_sha256(),
        "outputs_digested": len(workload.digests),
        "case_digests": workload.digests,
        "setup_runs_s": setup_runs,
        "import_runs_s": import_runs,
    }
    metrics: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, sample note)
    if args.trace:
        ops_per_s = [len(p["latencies"]) / p["elapsed"] for p in phases]
        for name, (value, unit) in aggregate(tracer).items():
            metrics[name] = (value, unit, f"{len(tracer.ops)} traced ops")
        metrics["trace.ops_per_s"] = (ops_per_s[1], "1/s", f"{len(traced['latencies'])} ops")
        metrics["trace.untraced_ops_per_s"] = (ops_per_s[0], "1/s", f"{len(plain['latencies'])} ops")
        metrics["trace.ops_per_s_ratio"] = (ops_per_s[1] / ops_per_s[0], "ratio", "traced / untraced")
        report["spans"] = tracer.dump()
        report["span_fields"] = ["id", "name", "op", "parent", "start", "end"]
    else:
        run = phases[0]
        lat = latency_summary(run["latencies"])
        n = lat["n"]
        done = n - len(failures)
        metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_REPEATS} imports + median of {SETUP_REPEATS} set-ups")
        metrics["ops_per_s"] = (done / run["elapsed"], "1/s", f"{done} completed ops in {run['elapsed']:.2f} s")
        metrics["op_p50_s"] = (lat["p50"], "s", f"{n} ops")
        metrics["op_tail_s"] = (
            lat["tail"],
            "s",
            f"p{lat['tail_pct']:.1f} of {n} ops, {lat['tail_beyond']} beyond",
        )
        metrics["error_rate"] = (len(failures) / attempted, "ratio", f"{len(failures)}/{attempted} ops")
        for name, (value, cases) in workload.quality_metrics().items():
            metrics[name] = (value, "dB", f"{cases} distinct results")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "whole process",
        )
        report["latency"] = lat
        report["ops"] = list(zip(run["keys"], run["latencies"]))

    report["metrics"] = {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} nproc={nproc} blas_threads={nproc} numpy={numpy.__version__}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit:10s} {samples}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        f"# outputs_sha256={report['outputs_sha256']} over {len(workload.digests)} results;"
        f" report {result_path.relative_to(ROOT)}"
    )

    wanted = gated_metrics(args.trace)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


def gated_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
