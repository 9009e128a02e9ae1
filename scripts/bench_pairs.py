#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REV OUT.json

Run from anywhere inside the repository. The parent revision's committed
files are unpacked into a temporary directory; the change is the
repository's working tree. For every workload in BENCHMARK.json and
seeds 0-9, both sides run

    python3 perfbench/run.py --workload W --seed i --seconds 60 --trace 0

one after the other, the parent first on even seeds and the change
first on odd ones, so drift in the machine's load hits both sides
alike. OUT.json gets, per workload and end-to-end metric, each side's
median and quartiles, the parent's IQR, each pair's change/parent ratio
with the ratios' median and quartiles (drift that hits both runs of a
pair cancels in its ratio), the number of pairs the change won (ties
count for neither side), and two verdicts: `gain` (won at
least 9/10 of the pairs and beat the parent's median by more than its
IQR) and `worse` (median worse than the parent's by more than the
metric's bound from BENCHMARK.json, as a fraction of the parent's
median). Quartiles, the IQR and `gain` need at least two pairs with
metrics on both sides; with fewer, the quartiles are null and `gain` is
false. It also gets every run's metrics, each side's failed/attempted
operation counts, `benchmark_identical`: whether BENCHMARK.json and
perfbench/ in the working tree equal the parent's, with no untracked
file under them, without which no claim holds, `src_lines_by_file`:
the line count of each src/deepesn/*.py on each side, and `src_lines`:
each side's total, the code size beside the speed.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

SEEDS = range(10)
SECONDS = 60
# What the benchmark runs; a claim holds only if both sides ran the same.
BENCHMARK_PATHS = ("BENCHMARK.json", "perfbench")


def git(root: str, *args) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def benchmark_identical(root: str, revision: str) -> bool:
    """Whether the working tree's benchmark files equal those of `revision`.

    A file that git does not track under the benchmark paths counts as a
    difference: the change side runs from the working tree, where such a
    file (say, a module that shadows an import) changes what runs.
    """
    diff = subprocess.run(
        ["git", "diff", "--quiet", revision, "--", *BENCHMARK_PATHS], cwd=root
    )
    if diff.returncode not in (0, 1):
        raise RuntimeError(f"git diff exited {diff.returncode}")
    untracked = git(
        root, "ls-files", "--others", "--exclude-standard", "--", *BENCHMARK_PATHS
    )
    return diff.returncode == 0 and not untracked


def unpack(root: str, revision: str, dest: str) -> None:
    """Write the committed files of `revision` under `dest`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=root, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def src_lines_by_file(root: str) -> dict:
    """Lines of each src/deepesn/*.py under `root` by file name, counted as
    `wc -l` counts them."""
    lines = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "deepesn", "*.py"))):
        with open(path, "rb") as fh:
            lines[os.path.basename(path)] = fh.read().count(b"\n")
    return lines


def src_lines(root: str) -> int:
    """Lines of src/deepesn/*.py under `root`: the sum of `src_lines_by_file`."""
    return sum(src_lines_by_file(root).values())


def run_once(root: str, workload: str, seed: int) -> dict:
    """One perfbench invocation; its last stdout line parsed as JSON."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    record = {"seed": seed, "wall_s": round(time.monotonic() - t0, 1)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return record
    result = json.loads(lines[-1])
    record.update(
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: m["value"] for name, m in result["metrics"].items()},
    )
    return record


def quartiles(values: list) -> tuple:
    """(q1, q3) of `values`, or (None, None) for fewer than two."""
    if len(values) < 2:
        return None, None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, pairs: list) -> dict:
    """Both sides' medians and quartiles, paired ratios, wins and verdicts.

    `gain` is the claim rule: the change won at least 9 of every 10
    pairs, ties counting for neither side, and its median is better than
    the parent's by more than the parent's IQR. `worse` is the
    regression rule: the change's median is worse than the parent's by
    more than `bound` times the parent's median. `ratios` holds each
    pair's change/parent value, None where the parent's is 0, and their
    median and quartiles summarize the others. Quartiles need two pairs
    (ratios); with one, they are None and there is no gain.
    """
    name, lower = metric["name"], metric["better"] == "lower"
    ok = [(p, c) for p, c in pairs if "metrics" in p and "metrics" in c]
    if not ok:
        return {"pairs": 0}
    parent = [p["metrics"][name] for p, _ in ok]
    change = [c["metrics"][name] for _, c in ok]
    ratios = [c / p if p else None for p, c in zip(parent, change)]
    defined = [r for r in ratios if r is not None]
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    r_q1, r_q3 = quartiles(defined)
    p_iqr = None if p_q1 is None else p_q3 - p_q1
    p_median, c_median = statistics.median(parent), statistics.median(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    improvement = (p_median - c_median) if lower else (c_median - p_median)
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent_median": p_median,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "parent_iqr": p_iqr,
        "change_median": c_median,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "ratios": ratios,
        "ratio_median": statistics.median(defined) if defined else None,
        "ratio_q1": r_q1,
        "ratio_q3": r_q3,
        "change_wins": wins,
        "pairs": len(ok),
        "gain": p_iqr is not None
        and 10 * wins >= 9 * len(ok)
        and improvement > p_iqr,
        "worse": -improvement > metric["bound"] * abs(p_median),
    }


def side_totals(runs: list) -> dict:
    return {
        "attempted": sum(r.get("attempted", 0) for r in runs),
        "failed": sum(r.get("failed", 0) for r in runs),
        "errored_runs": sum("error" in r for r in runs),
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent revision, e.g. HEAD~1")
    parser.add_argument("out", help="path of the JSON summary to write")
    args = parser.parse_args(argv)
    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parent_rev = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    identical = benchmark_identical(root, parent_rev)
    tmp = tempfile.mkdtemp(prefix="bench-parent-")
    try:
        unpack(root, parent_rev, tmp)
        sides = {"parent": tmp, "change": root}
        by_file = {side: src_lines_by_file(path) for side, path in sides.items()}
        workloads = {}
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed)
                    pair[side]["first"] = side == order[0]
                    print(f"{workload} seed {seed} {side}: {pair[side]}", file=sys.stderr)
                pairs.append((pair["parent"], pair["change"]))
            workloads[workload] = {
                "metrics": {
                    m["name"]: summarize(m, pairs) for m in benchmark["end_to_end"]
                },
                "parent": side_totals([p for p, _ in pairs]),
                "change": side_totals([c for _, c in pairs]),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "parent": parent_rev,
        "change": git(root, "rev-parse", "HEAD") + ("+working-tree" if dirty else ""),
        "benchmark_identical": identical,
        "src_lines": {side: sum(lines.values()) for side, lines in by_file.items()},
        "src_lines_by_file": by_file,
        "command": f"perfbench/run.py --workload W --seed i --seconds {SECONDS} --trace 0",
        "seeds": list(SEEDS),
        "order": "parent first on even seeds, change first on odd seeds",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
