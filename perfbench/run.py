#!/usr/bin/env python3
"""Closed-loop benchmark of the deep-ESN trial pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed picks an instance (the reservoir
seeds); the dataset is generated, saved and handed to the worker
processes as a file. One client starts each run as a fresh worker
process and starts the next only after the previous one has finished,
while another run is expected to end within `--seconds` (at least one
run is always made). Set-up is sampled at least `SETUP_SAMPLES` times.
Every run's outputs are compared with the reference recorded for the
instance.

`--trace 0` prints the end-to-end metrics; `--trace 1` makes one traced
run and prints the per-layer metrics. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import (
    BENCHMARK,
    HERE,
    N_INSTANCES,
    OUT,
    REFERENCES,
    SRC,
    WORKLOADS,
    best_test_acc,
    count_mismatches,
    import_deepesn,
    write_dataset,
)

SETUP_SAMPLES = 5
# Per-process limit; a run that exceeds it is killed and the benchmark fails.
WORKER_TIMEOUT_S = 170


def spawn_worker(workload, data_path, instance, mode, extra=()) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--data", data_path,
        "--instance", str(instance),
        "--mode", mode,
        *extra,
    ]
    t0 = time.monotonic()
    # A session of its own, so the worker and its pool children stop together.
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {mode} run of {workload} exceeded {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} run of {workload} exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {mode} run of {workload} printed no result")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def load_reference(workload, instance):
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    try:
        return references[workload][str(instance)]
    except KeyError:
        raise SystemExit(f"perfbench: no reference for {workload} instance {instance}")


def closed_loop(workload, data_path, instance, seconds) -> tuple[list, list]:
    """Timed runs back to back while the next is expected to fit."""
    start = time.monotonic()
    runs = []
    while True:
        runs.append(spawn_worker(workload, data_path, instance, "run"))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in runs)
        if elapsed + typical > seconds:
            break
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_worker(workload, data_path, instance, "setup")["setup_s"])
    return runs, setups


def end_to_end(workload, data_path, instance, reference, seconds):
    runs, setups = closed_loop(workload, data_path, instance, seconds)
    attempted = failed = 0
    for run in runs:
        a, f = count_mismatches(run["outputs"], reference)
        attempted += a
        failed += f
    items = sum(r["items"] for r in runs)
    metrics = {
        "cell_s": statistics.median(r["work_s"] / r["items"] for r in runs),
        "cells_per_hour": statistics.median(3600.0 * r["items"] / r["work_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "test_acc": statistics.median(best_test_acc(r["outputs"]) for r in runs),
    }
    print(f"runs {len(runs)}  items {items}  setup samples {len(setups)}")
    print(f"reference test_acc {best_test_acc(reference)!r}")
    return metrics, attempted, failed


def traced(workload, data_path, instance, reference, seed):
    spans_out = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    run = spawn_worker(
        workload, data_path, instance, "trace",
        ["--run-id", f"{workload}-seed{seed}", "--spans-out", spans_out],
    )
    attempted, failed = count_mismatches(run["outputs"], reference)
    for failure in run["failures"]:
        print(f"FAILED: {failure}")
    attempted += 1
    failed += int(bool(run["failures"]))
    metrics = dict(run["metrics"])
    metrics["data.load_s"] = run["data.load_s"]
    metrics["data.dense_s"] = run["data.dense_s"]
    machine = run["machine"]
    peak = metrics["machine.dgemm_gflops"]
    print(
        f"machine: {machine['cpu_count']} CPUs, {machine['blas']} {machine['blas_version']}, "
        f"thread env {machine['blas_thread_env'] or 'unset'}, Python {machine['python']}, "
        f"numpy {machine['numpy']}, scipy {machine['scipy']}, "
        f"LLC {machine['llc_bytes']} bytes, dgemm {peak:.1f} GFLOP/s"
    )
    for layer in ("reservoir.collect", "readout.accumulate", "readout.solve"):
        rate = metrics[f"{layer}_gflops"]
        intensity = run["flops"][f"{layer.split('.')[1]}_flops_per_byte"]
        print(
            f"{layer}: {rate:.3g} GFLOP/s = {rate / peak:.1%} of dgemm, "
            f"{intensity:.3g} flop/byte"
        )
    for workers, dist in run["selection"].get("trial_seconds", {}).items():
        print(f"TrialReport.seconds with {workers} worker(s): {dist}")
    print(f"numerical events: {run['events'] or 'none'}")
    print(f"untraced item {run['work_s']:.4f} s, traced {metrics['trace.cell_s']:.4f} s")
    print("self time by span, traced item:")
    for name, value in sorted(run["self_times_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<30} {value:10.4f} s")
    print(f"spans written to {os.path.relpath(spans_out)}")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import_deepesn()
    instance = args.seed % N_INSTANCES
    reference = load_reference(args.workload, instance)
    data_path = write_dataset(args.workload)
    print(f"workload {args.workload}  seed {args.seed}  instance {instance} of {N_INSTANCES}")
    if args.trace:
        metrics, attempted, failed = traced(
            args.workload, data_path, instance, reference, args.seed
        )
    else:
        metrics, attempted, failed = end_to_end(
            args.workload, data_path, instance, reference, args.seconds
        )
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}"
        )
    for name, value in metrics.items():
        print(f"{name:<40} {value:14.6g} {units[name]}")
    print(f"{'error_rate':<40} {failed / attempted:14.6g} ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
