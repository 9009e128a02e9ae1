#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_references.py [--workload NAME ...]

Runs each workload once per instance (reservoir seed), untraced, and stores the
outputs (per-ridge accuracies and thresholds of a cell; every trial row
and the selected configuration of a grid) in references.json. Only run
it on a commit whose outputs are known to be right: the benchmark counts
any later difference as a failure.
"""

from __future__ import annotations

import argparse
import json
import os

from run import spawn_worker
from workloads import N_INSTANCES, REFERENCES, WORKLOADS, import_deepesn, write_dataset


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    import_deepesn()
    references = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    for workload in args.workload or sorted(WORKLOADS):
        recorded = {}
        data_path = write_dataset(workload)
        for instance in range(N_INSTANCES):
            run = spawn_worker(workload, data_path, instance, "run")
            recorded[str(instance)] = run["outputs"]
            print(f"{workload} instance {instance}: {run['work_s']:.2f} s", flush=True)
        references[workload] = recorded
        with open(REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
