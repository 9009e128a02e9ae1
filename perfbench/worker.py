"""One benchmark run in a fresh process: set up, run the work, report.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --data FILE --instance I --t0 T --mode M

`--t0` is the parent's monotonic clock just before it started this
process, so `setup_s` covers interpreter start, imports, loading and
validating the dataset file, densifying it and a BLAS/LAPACK warm-up.
Modes: `setup` stops after set-up; `run` times the workload untraced;
`trace` also runs one work item phase by phase under spans and probes
the layers. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from tracing import EventCounter, Tracer, dgemm_gflops, machine_record
from workloads import (
    RIDGES,
    WORKLOADS,
    cell_config,
    cell_outputs,
    grid_outputs,
    grid_setup,
    import_deepesn,
    ip_config,
)

SPLITS = ("train", "valid", "test")


def warm_up():
    """Touch the BLAS and LAPACK paths the pipeline uses once."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    a = np.random.default_rng(0).standard_normal((64, 64))
    cho_solve(cho_factor(a @ a.T + 64.0 * np.eye(64)), a)
    np.linalg.eigvals(a)
    np.linalg.svd(a, compute_uv=False)


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB.

    Timed runs start no pool: the grid workload runs on one worker,
    which grid_search keeps in-process.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_cell(dataset, config):
    from deepesn import sweep_ridges

    start = time.perf_counter()
    results = sweep_ridges(
        dataset, config, RIDGES, ip=ip_config(), tune_threshold=True
    )
    return time.perf_counter() - start, results


def run_grid(workload, dataset, workers, master_seed):
    from deepesn import grid_search

    base, grid = grid_setup(workload, dataset.dim)
    start = time.perf_counter()
    selection = grid_search(
        dataset,
        base,
        grid,
        master_seed=master_seed,
        ip=ip_config(),
        tune_threshold=True,
        workers=workers,
    )
    return time.perf_counter() - start, selection


def timed_run(workload, dataset, instance) -> dict:
    spec = WORKLOADS[workload]
    if spec["kind"] == "cell":
        seconds, results = run_cell(
            dataset, cell_config(workload, dataset.dim, instance)
        )
        return {"work_s": seconds, "items": 1, "outputs": cell_outputs(results)}
    seconds, selection = run_grid(workload, dataset, spec["workers"], instance)
    return {
        "work_s": seconds,
        "items": len(selection.trials) // len(RIDGES),
        "outputs": grid_outputs(selection),
    }


def run_phases(tracer, dataset, config):
    """The sweep_ridges pipeline, one public call per span.

    Mirrors `sweep_ridges` call for call, so its accuracies must match
    the untraced sweep exactly.
    """
    from deepesn import RidgeAccumulator, init_deep_reservoir, pretrain_ip
    from deepesn.experiment import choose_threshold, collect_pairs, evaluate_readout

    ip = ip_config()
    with tracer.span("reservoir.init"):
        reservoir = init_deep_reservoir(config)
    dense = {}
    with tracer.span("data.dense", split="train"):
        dense["train"] = dataset.dense("train")
    drives = [seq[:-1] for seq in dense["train"] if seq.shape[0] > 1]
    with tracer.span("ip.pretrain", steps=ip.epochs * sum(len(d) for d in drives)):
        pretrain_ip(reservoir, drives, ip)
    pairs = {}
    for split in SPLITS:
        if split not in dense:
            with tracer.span("data.dense", split=split):
                dense[split] = dataset.dense(split)
        steps = sum(max(len(seq) - 1, 0) for seq in dense[split])
        with tracer.span("experiment.collect_pairs", split=split, steps=steps):
            pairs[split] = collect_pairs(reservoir, dense[split])
    with tracer.span("readout.accumulate", rows=sum(len(s) for s, _ in pairs["train"])):
        accumulator = RidgeAccumulator(reservoir.state_dim, dataset.dim)
        for states, targets in pairs["train"]:
            accumulator.add(states, targets)
    rows = []
    for ridge in RIDGES:
        with tracer.span("readout.solve", ridge=ridge):
            readout = accumulator.solve(ridge)
        with tracer.span("experiment.choose_threshold"):
            readout.threshold = choose_threshold(readout.weights, pairs["valid"])
        accs = []
        for split in SPLITS:
            with tracer.span("metrics.eval", split=split):
                accs.append(evaluate_readout(readout, pairs[split]))
        rows.append([ridge, *accs, readout.threshold])
    return reservoir, pairs, {"ridges": rows}


def probe_linalg(tracer, reservoir):
    """Re-estimate radius and norm of every built layer, one span each."""
    from deepesn import effective_matrix, operator_norm, spectral_radius

    with tracer.span("probe.linalg"):
        for i, layer in enumerate(reservoir.layers):
            matrix = effective_matrix(layer.recurrent, layer.leaky_rate)
            with tracer.span("linalg.spectral_radius", layer=i):
                spectral_radius(matrix)
            with tracer.span("linalg.operator_norm", layer=i):
                operator_norm(layer.feed)


def probe_layer_steps(tracer, reservoir, inputs):
    """Per-layer step cost over one sequence, checked against run_sequence.

    Returns (first layer us/step, deeper layers us/layer-step, states
    equal to run_sequence).
    """
    import numpy as np
    from deepesn import run_sequence

    layers = reservoir.layers
    states = reservoir.initial_states()
    out = np.empty((inputs.shape[0], reservoir.state_dim))
    first = deeper = 0.0
    clock = time.perf_counter
    with tracer.span("probe.layer_steps", steps=inputs.shape[0]):
        for t in range(inputs.shape[0]):
            t0 = clock()
            states[0] = layers[0].step(states[0], inputs[t])
            t1 = clock()
            for i in range(1, len(layers)):
                states[i] = layers[i].step(states[i], states[i - 1])
            t2 = clock()
            first += t1 - t0
            deeper += t2 - t1
            out[t] = np.concatenate(states)
    steps = inputs.shape[0]
    deeper_layer_steps = steps * (len(layers) - 1)
    return (
        first / steps * 1e6,
        deeper / deeper_layer_steps * 1e6 if deeper_layer_steps else 0.0,
        bool(np.array_equal(out, run_sequence(reservoir, inputs))),
    )


def _flops(reservoir, pairs, tracer, root):
    """Computed operation and byte counts of collection, accumulate, solve."""
    import scipy.sparse as sp

    d = reservoir.state_dim
    k = pairs["train"][0][1].shape[1]
    # Per step: dense feed product plus sparse recurrent product.
    step_flops = 0
    step_bytes = 0
    for layer in reservoir.layers:
        recurrent = layer.recurrent
        nnz = recurrent.nnz if sp.issparse(recurrent) else recurrent.size
        step_flops += 2 * (layer.feed.size + nnz)
        step_bytes += 8 * layer.feed.size + 12 * nnz
    steps = sum(s["attrs"]["steps"] for s in tracer.find("experiment.collect_pairs", root))
    rows = sum(len(s) for s, _ in pairs["train"])
    n_adds = len(pairs["train"])
    # X^T X by SYRK (one triangle) plus X^T Y; each add reads and
    # writes the (d+1)^2 block and reads its rows.
    acc_flops = rows * (d * (d + 1) + 2 * d * k)
    acc_bytes = 8 * (2 * n_adds * (d + 1) ** 2 + rows * (d + k))
    n = d + 1
    # Cholesky plus two triangular solves with k right-hand sides.
    solve_flops = n**3 / 3 + 2 * n * n * k
    solve_bytes = 8 * (3 * n * n + 2 * n * k)
    return {
        "collect_flops": step_flops * steps,
        "collect_flops_per_byte": step_flops / step_bytes,
        "accumulate_flops": acc_flops,
        "accumulate_flops_per_byte": acc_flops / acc_bytes,
        "solve_flops": solve_flops,
        "solve_flops_per_byte": solve_flops / solve_bytes,
    }


def _events_since(counter, before):
    return {k: v - before.get(k, 0) for k, v in counter.counts.items()}


def _cell_reference(workload, dataset, instance, counter, tracer):
    """Untraced sweep of a paper cell; the cell is also the probe item."""
    config = cell_config(workload, dataset.dim, instance)
    before = dict(counter.counts)
    with tracer.span("experiment.sweep_ridges"):
        seconds, results = run_cell(dataset, config)
    return {
        "config": config,
        "untraced_s": seconds,
        "results": results,
        "outputs": cell_outputs(results),
        "items": 1,
        "events": _events_since(counter, before),
        "trial_seconds": [r.seconds for r in results],
        # One item runs on one worker: there is no parallel scaling.
        "scaling_eff": 1.0,
        "selection": {},
        "failures": [],
    }


def _grid_reference(workload, dataset, instance, counter, tracer):
    """The workload's grid, again on more workers, then its first item alone."""
    from dataclasses import replace

    from deepesn.selection import clip_radius_target, guess_seed

    spec = WORKLOADS[workload]
    workers, more = spec["workers"], spec["scaling_workers"]
    # Events are counted in the one-worker grid, which runs in this process.
    before = dict(counter.counts)
    with tracer.span("selection.grid_search", workers=workers):
        wall_1, selection = run_grid(workload, dataset, workers, instance)
    events = _events_since(counter, before)
    with tracer.span("selection.grid_search", workers=more):
        wall_n, selection_n = run_grid(workload, dataset, more, instance)
    outputs = grid_outputs(selection)
    failures = []
    if grid_outputs(selection_n) != outputs:
        failures.append(f"grid outputs differ between {workers} and {more} workers")
    seconds = {
        str(n): [t.seconds for t in sel.trials if t.seconds is not None]
        for n, sel in ((workers, selection), (more, selection_n))
    }

    base, grid = grid_setup(workload, dataset.dim)
    config = replace(
        base,
        input_dim=dataset.dim,
        spectral_radius_target=clip_radius_target(grid.spectral_radii[0]),
        leaky_rate=grid.leaky_rates[0],
        input_scaling=grid.input_scalings[0],
        seed=guess_seed(instance, 0, 0),
    )
    # The item alone takes about a second, so take the median of a few.
    runs = []
    for _ in range(3):
        with tracer.span("experiment.sweep_ridges"):
            runs.append(run_cell(dataset, config))
    untraced_s = statistics.median(seconds for seconds, _ in runs)
    results = runs[0][1]
    expected = [
        [t.ridge, t.train_acc, t.valid_acc, t.test_acc, t.threshold]
        for t in selection.trials
        if t.guess == 0 and t.config_index < len(RIDGES)
    ]
    if cell_outputs(results)["ridges"] != expected:
        failures.append("first grid item run alone differs from its grid trials")
    return {
        "config": config,
        "untraced_s": untraced_s,
        "results": results,
        "outputs": outputs,
        "items": len(selection.trials) // len(RIDGES),
        "events": events,
        "trial_seconds": seconds[str(workers)],
        "scaling_eff": wall_1 / (more * wall_n),
        "selection": {
            "wall_s": {str(workers): wall_1, str(more): wall_n},
            "trial_seconds": {n: _distribution(v) for n, v in seconds.items()},
        },
        "failures": failures,
    }


def traced_run(workload, dataset, instance, counter, run_id, spans_out) -> dict:
    """Untraced reference work, then one work item phase by phase."""
    tracer = Tracer(run_id)
    reference = (
        _cell_reference if WORKLOADS[workload]["kind"] == "cell" else _grid_reference
    )(workload, dataset, instance, counter, tracer)
    config, results = reference["config"], reference["results"]
    untraced_s, events = reference["untraced_s"], reference["events"]
    failures = reference["failures"]

    with tracer.span("cell") as root:
        reservoir, pairs, phased = run_phases(tracer, dataset, config)
    if phased != cell_outputs(results):
        failures.append("phase-by-phase pipeline differs from sweep_ridges")

    probe_linalg(tracer, reservoir)
    first_us, deeper_us, steps_equal = probe_layer_steps(
        tracer, reservoir, dataset.dense("train")[0][:-1]
    )
    if not steps_equal:
        failures.append("layer-step probe differs from run_sequence")
    gflops_peak = dgemm_gflops()

    flops = _flops(reservoir, pairs, tracer, root)
    traced_s = tracer.duration(root)
    collect_s = tracer.total("experiment.collect_pairs", root)
    collect_steps = sum(
        s["attrs"]["steps"] for s in tracer.find("experiment.collect_pairs", root)
    )
    ip_span = tracer.find("ip.pretrain", root)[0]
    accumulate_s = tracer.total("readout.accumulate", root)
    solve_s = statistics.median(
        tracer.duration(s) for s in tracer.find("readout.solve", root)
    )
    radius = [tracer.duration(s) for s in tracer.find("linalg.spectral_radius")]
    norm = [tracer.duration(s) for s in tracer.find("linalg.operator_norm")]
    metrics = {
        "reservoir.init_s": tracer.total("reservoir.init", root),
        "linalg.radius_ms_per_layer": statistics.fmean(radius) * 1e3,
        "linalg.norm_ms_per_layer": statistics.fmean(norm) * 1e3,
        "linalg.fallbacks": events.get("linalg.radius_fallbacks", 0)
        + events.get("linalg.norm_fallbacks", 0),
        "ip.us_per_step": tracer.duration(ip_span) / ip_span["attrs"]["steps"] * 1e6,
        "ip.gain_clamps": events.get("ip.gain_clamps", 0),
        "reservoir.collect_us_per_step": collect_s / collect_steps * 1e6,
        "reservoir.layer1_us_per_step": first_us,
        "reservoir.deeper_us_per_layer_step": deeper_us,
        "reservoir.collect_gflops": flops["collect_flops"] / collect_s / 1e9,
        "readout.accumulate_s": accumulate_s,
        "readout.accumulate_gflops": flops["accumulate_flops"] / accumulate_s / 1e9,
        "readout.solve_s_per_ridge": solve_s,
        "readout.solve_gflops": flops["solve_flops"] / solve_s / 1e9,
        "readout.lstsq_fallbacks": events.get("readout.lstsq_fallbacks", 0),
        "experiment.state_mb": sum(
            s.nbytes for split in SPLITS for s, _ in pairs[split]
        )
        / 1e6,
        "experiment.threshold_s": tracer.total("experiment.choose_threshold", root),
        "metrics.eval_s": tracer.total("metrics.eval", root),
        "selection.trial_s": statistics.median(reference["trial_seconds"]),
        "selection.scaling_eff": reference["scaling_eff"],
        "machine.dgemm_gflops": gflops_peak,
        "trace.cell_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    report = {
        "run": run_id,
        "workload": workload,
        "machine": machine_record(),
        "untraced_item_s": untraced_s,
        "traced_item_s": traced_s,
        "self_times_s": tracer.self_times(root),
        "events": events,
        "flops": flops,
        "selection": reference["selection"],
        "metrics": metrics,
        "failures": failures,
        "spans": tracer.spans,
    }
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    summary = {key: value for key, value in report.items() if key != "spans"}
    return {
        "work_s": untraced_s,
        "items": reference["items"],
        "outputs": reference["outputs"],
        **summary,
    }


def _distribution(values):
    values = sorted(values)
    return {
        "n": len(values),
        "min": values[0],
        "median": statistics.median(values),
        "max": values[-1],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--instance", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    import_deepesn()
    counter = EventCounter().install()
    from deepesn import load_dataset

    start = time.perf_counter()
    dataset = load_dataset(args.data)
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    for split in SPLITS:
        dataset.dense(split)
    dense_s = time.perf_counter() - start
    warm_up()
    result = {
        "setup_s": time.monotonic() - args.t0,
        "data.load_s": load_s,
        "data.dense_s": dense_s,
    }
    if args.mode == "run":
        result.update(timed_run(args.workload, dataset, args.instance))
        result["peak_rss_mb"] = peak_rss_mb()
    elif args.mode == "trace":
        result.update(traced_run(
            args.workload, dataset, args.instance, counter, args.run_id, args.spans_out
        ))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
