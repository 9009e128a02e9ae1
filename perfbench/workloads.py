"""Workload definitions shared by the benchmark client, worker and recorder.

Every workload is a fixed model shape plus the seed-0 synthetic 88-key
dataset of the ROADMAP baseline (20/5/5 sequences of 100-200 frames give
2987 training steps). The benchmark seed picks the reservoir weights:
instance = seed mod N_INSTANCES selects the guess of a paper cell
(reservoir seed instance + 1, so seed 0 is the baseline reservoir) or
the master seed of a grid. The work per run is therefore the same for
every seed, while weights, radius-estimation paths and accuracies vary.
Each instance has recorded reference outputs in references.json, so
every run is checked exactly.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Number of instances (reservoir seeds) with recorded references.
N_INSTANCES = 10

RIDGES = (1e-4, 1e-3, 1e-2, 1e-1)
IP_EPOCHS = 1
DIM = 88
DATA_SEED = 0
LENGTH_RANGE = (100, 200)

WORKLOADS = {
    # One (cell, guess) of the paper grid at the deepesn-paper shape.
    "paper-deep-cell": {
        "kind": "cell",
        "n_layers": 30,
        "units": 200,
        "connectivity": 0.01,
        "n_sequences": (20, 5, 5),
    },
    # A 2x2x2 grid x 4 ridges x 2 guesses in one process. Two workers on
    # a 2-CPU machine oversubscribe the BLAS threads, which doubles and
    # scatters the wall time; the traced run measures that separately.
    "grid-small-1w": {
        "kind": "grid",
        "n_layers": 10,
        "units": 50,
        "connectivity": 0.05,
        "n_sequences": (8, 4, 4),
        "workers": 1,
        "scaling_workers": 2,
        "spectral_radii": (0.5, 0.9),
        "leaky_rates": (0.5, 1.0),
        "input_scalings": (0.5, 1.5),
        "n_guesses": 2,
    },
}

# Fixed cell hyper-parameters of the paper-shape workloads.
CELL_LEAKY_RATE = 0.5
CELL_RADIUS = 0.9


def import_deepesn():
    """Make the repository's `src` importable; fail clearly without it."""
    if not os.path.isfile(os.path.join(SRC, "deepesn", "__init__.py")):
        raise SystemExit(f"perfbench: no deepesn package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def write_dataset(workload: str) -> str:
    """Generate a workload's dataset and save it; returns the file path."""
    from deepesn import make_synthetic_dataset, save_dataset

    dataset = make_synthetic_dataset(
        name=workload,
        dim=DIM,
        n_sequences=WORKLOADS[workload]["n_sequences"],
        length_range=LENGTH_RANGE,
        seed=DATA_SEED,
    )
    path = os.path.join(OUT, "data", f"{workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_dataset(dataset, path)
    return path


def cell_config(workload: str, input_dim: int, instance: int):
    from deepesn import ReservoirConfig

    spec = WORKLOADS[workload]
    return ReservoirConfig(
        input_dim,
        spec["n_layers"],
        spec["units"],
        leaky_rate=CELL_LEAKY_RATE,
        spectral_radius_target=CELL_RADIUS,
        connectivity=spec["connectivity"],
        seed=instance + 1,
    )


def grid_setup(workload: str, input_dim: int):
    """(base config, grid spec) of a grid workload."""
    from deepesn import GridSpec, ReservoirConfig

    spec = WORKLOADS[workload]
    base = ReservoirConfig(
        input_dim, spec["n_layers"], spec["units"], connectivity=spec["connectivity"]
    )
    grid = GridSpec(
        spectral_radii=spec["spectral_radii"],
        leaky_rates=spec["leaky_rates"],
        input_scalings=spec["input_scalings"],
        ridges=RIDGES,
        n_guesses=spec["n_guesses"],
    )
    return base, grid


def ip_config():
    from deepesn import IpConfig

    return IpConfig(epochs=IP_EPOCHS)


def cell_outputs(results) -> dict:
    """Reference-comparable outputs of one ridge sweep."""
    return {
        "ridges": [
            [ridge, r.train_acc, r.valid_acc, r.test_acc, r.threshold]
            for ridge, r in zip(RIDGES, results)
        ]
    }


def grid_outputs(selection) -> dict:
    """Reference-comparable outputs of one grid search."""
    best = selection.best
    return {
        "best": None
        if best is None
        else [best.config_index, best.mean_valid_acc, best.mean_test_acc],
        "trials": [
            [t.config_index, t.guess, t.status, t.train_acc, t.valid_acc,
             t.test_acc, t.threshold]
            for t in selection.trials
        ],
    }


def best_test_acc(outputs: dict) -> float:
    """Headline accuracy: best ridge by validation, or the selected config."""
    if "best" in outputs:
        return outputs["best"][2]
    best = max(outputs["ridges"], key=lambda row: row[2])  # first on ties
    return best[3]


def count_mismatches(outputs: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one run against its reference.

    A cell is one operation. A grid is one operation per (cell, guess)
    work item plus one for the selection; an item fails if any of its
    trial rows failed or differs from the reference.
    """
    if "ridges" in outputs:
        return 1, int(outputs["ridges"] != reference["ridges"])
    n_items = len(reference["trials"]) // len(RIDGES)
    if len(outputs["trials"]) != len(reference["trials"]):
        return n_items + 1, n_items + 1
    bad = set()
    for row, ref in zip(outputs["trials"], reference["trials"]):
        if row[2] != "ok" or row != ref:
            bad.add((row[0] // len(RIDGES), row[1]))
    return n_items + 1, len(bad) + int(outputs["best"] != reference["best"])
