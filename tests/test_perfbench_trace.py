"""The benchmark's phase-by-phase path, run against the library.

Under `--trace 1`, perfbench/worker.py runs one cell through the public
calls one at a time (`collect_pairs`, `RidgeAccumulator`,
`choose_threshold`, `evaluate_readout`, the last two scoring one
product per split) and requires the rows that `sweep_ridges` gives.
Running that path here shows a change to those calls in the test suite.
Nothing under perfbench/ is written.
"""

import importlib.util
import os
import sys

import pytest

from deepesn import ReservoirConfig, make_synthetic_dataset, sweep_ridges

PERFBENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"
)


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    path = os.path.join(PERFBENCH, "worker.py")
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The default synthetic shape; the grid-small-1w width (500 features)
# on 88 keys with sequences of 2-90 frames, where per-sequence products
# of the readout were seen to round differently from one stacked product;
# and 1200 features, wide enough for the reservoir phases' two threads.
@pytest.mark.parametrize(
    "data, layers, units",
    [
        (dict(), 3, 20),
        (dict(dim=88, n_sequences=(12, 8, 8), length_range=(2, 90)), 10, 50),
        (dict(dim=88, n_sequences=(6, 3, 3), length_range=(2, 60)), 6, 200),
    ],
    ids=["3x20", "10x50-short-88", "6x200-wide-88"],
)
def test_run_phases_equals_sweep_ridges(worker, data, layers, units):
    ds = make_synthetic_dataset(seed=0, **data)
    cfg = ReservoirConfig(
        ds.dim, layers, units, leaky_rate=0.5, connectivity=0.2, seed=1
    )
    reservoir, _, rows = worker.run_phases(worker.Tracer("t"), ds, cfg)
    results = sweep_ridges(
        ds, cfg, worker.RIDGES, ip=worker.ip_config(), tune_threshold=True
    )
    assert rows == worker.cell_outputs(results)
    inputs = ds.dense("train")[0][:-1]
    assert worker.probe_layer_steps(worker.Tracer("t"), reservoir, inputs)[2] is True
