"""Command-line benchmark harness.

Three subcommands:

    deepesn run [dataset] --config c.json [--seed N] [--workers N] [--out p]
    deepesn grid [dataset] --config c.json [--seed N] [--workers N] [--out p]
    deepesn validate-data dataset [--out p]

`run` trains one model with the configured hyper-parameters; `grid`
executes the full search protocol; `validate-data` checks a dataset
file against the canonical format. Reports are JSON with sorted keys;
all wall-clock measurements live under "timing" keys so reports can be
compared byte for byte after stripping them. Exit codes: 0 on success,
2 for configuration or data-format problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict

from . import __version__
from .config import (
    build_grid_spec,
    build_ip_config,
    build_reservoir_config,
    resolve_config,
)
from .data import load_dataset
from .errors import ConfigError, DataFormatError, DeepEsnError
from .experiment import run_model
from .selection import grid_search

REPORT_SCHEMA = "deepesn-report/1"

__all__ = ["main", "dump_report", "strip_timing"]


def strip_timing(obj):
    """Recursively drop every "timing" key, leaving the rest intact.

    What remains is deterministic for a given configuration and seed,
    so two stripped reports from identical runs compare equal.
    """
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def dump_report(report: dict) -> str:
    """Canonical report text: sorted keys, 2-space indent, final newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _destination(args) -> str | None:
    """The report path: --out, else $DEEPESN_OUT, else None for stdout."""
    return args.out if args.out is not None else os.environ.get("DEEPESN_OUT")


def _check_destination(out: str | None) -> None:
    """Raise ConfigError unless the report can be written to `out`.

    Checked before any work, so a long grid cannot end with nowhere to
    put its report.
    """
    if out is None:
        return
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise ConfigError(f"report destination {out!r} is a directory")
    if not os.path.isdir(folder):
        raise ConfigError(
            f"report destination {out!r}: directory {folder!r} does not exist"
        )
    if not os.access(folder, os.W_OK) or (
        os.path.exists(out) and not os.access(out, os.W_OK)
    ):
        raise ConfigError(f"report destination {out!r} is not writable")


def _write_report(report: dict, args) -> None:
    """Write to --out, else to $DEEPESN_OUT, else to stdout."""
    out = _destination(args)
    text = dump_report(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_configured_dataset(args):
    config = resolve_config(
        path=args.config,
        seed=args.seed,
        workers=args.workers,
        dataset=args.dataset,
    )
    if config["dataset"] is None:
        raise ConfigError(
            "no dataset given; pass one as an argument or set it in the config"
        )
    dataset = load_dataset(config["dataset"])
    return config, dataset


def _cmd_run(args) -> dict:
    config, dataset = _load_configured_dataset(args)
    reservoir_config = build_reservoir_config(config, dataset.dim)
    readout = config["readout"]
    result = run_model(
        dataset,
        reservoir_config,
        ridge=readout["ridge"],
        ip=build_ip_config(config),
        washout=config["washout"],
        threshold=readout["threshold"],
        tune_threshold=readout["tune_threshold"],
    )
    results = asdict(result)
    return {
        "dataset": {"name": dataset.name, "dim": dataset.dim},
        "config": config,
        "timing": {"seconds": results.pop("seconds")},
        "results": results,
    }


def _cmd_grid(args) -> dict:
    config, dataset = _load_configured_dataset(args)
    base = build_reservoir_config(config, dataset.dim)
    start = time.perf_counter()
    selection = grid_search(
        dataset,
        base,
        grid=build_grid_spec(config),
        master_seed=config["seed"],
        ip=build_ip_config(config),
        washout=config["washout"],
        threshold=config["readout"]["threshold"],
        tune_threshold=config["readout"]["tune_threshold"],
        workers=config["workers"],
    )
    return {
        "dataset": {"name": dataset.name, "dim": dataset.dim},
        "config": config,
        "best": selection.best.to_dict() if selection.best else None,
        "trials": [trial.to_dict() for trial in selection.trials],
        "timing": {"seconds": time.perf_counter() - start},
    }


def _cmd_validate_data(args) -> dict:
    dataset = load_dataset(args.dataset)
    return {"valid": True, "summary": dataset.summary()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepesn",
        description="Deep reservoir benchmark harness for next-frame prediction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_config: bool):
        if with_config:
            p.add_argument("dataset", nargs="?", help="dataset file (JSON)")
            p.add_argument("--config", help="configuration file (JSON)")
            p.add_argument("--seed", type=int, help="master seed override")
            p.add_argument("--workers", type=int, help="worker process count")
        else:
            p.add_argument("dataset", help="dataset file (JSON)")
        p.add_argument("--out", help="report destination (default: stdout)")

    run_p = sub.add_parser("run", help="train and score one model")
    add_common(run_p, with_config=True)
    run_p.set_defaults(func=_cmd_run)

    grid_p = sub.add_parser("grid", help="run the hyper-parameter search")
    add_common(grid_p, with_config=True)
    grid_p.set_defaults(func=_cmd_grid)

    val_p = sub.add_parser("validate-data", help="check a dataset file")
    add_common(val_p, with_config=False)
    val_p.set_defaults(func=_cmd_validate_data)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        _check_destination(_destination(args))
        report = {"schema": REPORT_SCHEMA, "kind": args.command, **args.func(args)}
        _write_report(report, args)
        if args.command == "grid" and report["best"] is None:
            print("error: no grid trial succeeded", file=sys.stderr)
            return 1
        return 0
    except (
        ConfigError, DataFormatError, FileNotFoundError, IsADirectoryError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeepEsnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
