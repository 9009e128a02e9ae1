"""Spans, numerical-event counters and the machine record of a run.

Spans are recorded by the benchmark around its calls into the package;
nothing inside the package is instrumented. Numerical events (radius
and norm fallbacks, least-squares fallbacks, IP gain clamps) are counted
from the package's log records.
"""

from __future__ import annotations

import glob
import logging
import os
import platform
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """In-memory spans: (id, name, start, end, parent, run id, attrs)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, record) -> float:
        return record["end"] - record["start"]

    def total(self, name: str, root=None) -> float:
        """Summed duration of spans called `name` (under `root` if given)."""
        return sum(self.duration(s) for s in self.find(name, root))

    def find(self, name: str, root=None) -> list:
        spans = [s for s in self.spans if s["name"] == name]
        if root is None:
            return spans
        return [s for s in spans if self._under(s, root["id"])]

    def _under(self, span, root_id) -> bool:
        while span is not None:
            if span["id"] == root_id:
                return True
            span = self.spans[span["parent"]] if span["parent"] is not None else None
        return False

    def self_times(self, root) -> dict:
        """Self time per span name within `root`, the root included.

        A span's self time is its duration minus that of its direct
        children, so the values sum to the root's duration.
        """
        child_time = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += self.duration(s)
        out = Counter()
        for s in self.spans:
            if self._under(s, root["id"]):
                out[s["name"]] += self.duration(s) - child_time[s["id"]]
        return dict(out)


class EventCounter(logging.Handler):
    """Counts the package's numerical fallbacks and clamps from its logs.

    Attached to the `deepesn.linalg`, `deepesn.readout` and `deepesn.ip`
    loggers with propagation off, so the per-step clamp warnings are
    counted but never echoed.
    """

    LOGGERS = ("deepesn.linalg", "deepesn.readout", "deepesn.ip")

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = Counter()

    def emit(self, record):
        message = record.getMessage()
        if record.name == "deepesn.linalg":
            kind = "norm" if ("M^T M" in message or "SVD" in message) else "radius"
            self.counts[f"linalg.{kind}_fallbacks"] += 1
        elif record.name == "deepesn.readout":
            self.counts["readout.lstsq_fallbacks"] += 1
        elif record.name == "deepesn.ip" and message.startswith("clamped"):
            self.counts["ip.gain_clamps"] += int(record.args[0])

    def install(self):
        for name in self.LOGGERS:
            logger = logging.getLogger(name)
            logger.setLevel(logging.DEBUG)
            logger.propagate = False
            logger.addHandler(self)
        return self


def _llc_bytes():
    """Size of the highest-level CPU cache, read from sysfs, or None."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if level > best[0]:
            best = (level, value)
    return best[1]


def machine_record() -> dict:
    """CPU count, BLAS build and threads, versions and LLC size."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {
        key: os.environ[key]
        for key in (
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
        )
        if key in os.environ
    }
    return {
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": thread_env,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": _llc_bytes(),
    }


def dgemm_gflops(n: int = 1000, repeats: int = 5) -> float:
    """Best-of-`repeats` GFLOP/s of an n x n double matrix product."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9
