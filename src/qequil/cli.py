"""Command-line runner: parses arguments, merges and checks the config (JSON
file, then flags), runs an experiment of :mod:`qequil.batteries` and writes
the files it returns: each ``.csv`` table from its columns, a block of rows
at a time, and each ``.json`` payload whole. Every file carries the config
hash and, for a seeded experiment, its seed (``seed``, or ``phase_seed``
for figure3): a leading ``#`` comment for CSV, ``_``-prefixed keys for
JSON. Outputs are byte-identical for identical configs at a fixed BLAS
thread count, whatever the number of CPUs: ``haar`` runs its battery's
scenarios on a ``fork`` process pool over the usable CPUs (in process on
one CPU, where ``fork`` is missing, or on CPython 3.12 and later), each
seeded by its index alone. The workers' memory is outside this process's
peak RSS. The exit code is 0 exactly when every check holds; failed checks
are also written to ``failures.json``. An input it cannot run on, or a
worker that dies, ends the run with one line on standard error.

Energies are treated in units with hbar = 1; to convert a time column to
seconds multiply by hbar / (energy unit in joules).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import batteries

__all__ = ["main"]

DEFAULTS = {
    "figure3": {"levels": 50, "spacing": 1.0, "samples": 2049, "phase_seed": 0},
    "bounds": {"seed": 20240811, "trials": 200, "t_points": 12, "max_rank": 8,
               "gap_counting_dim": 40},
    "slow": {"seed": 20240811, "dim": 2048, "snapshots": 16, "epsilon": 0.5,
             "samples": 256, "outcomes": 3},
    "gaussian": {"levels": 2000, "sigma": 1.0, "span": 8.0,
                 "sigma_t_grid": [2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 20.0, 25.0, 50.0]},
    "haar": {"seed": 20240811, "samples": 2000, "battery_scenarios": 50,
             "battery_samples": 300, "twirl_samples": 10000},
    "eta": {"spectrum": None, "state": None, "epsilon": 1.0},
    "spectrum-info": {"spectrum": None, "hermitian": None, "epsilon": None},
}


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_types(name: str, overrides: dict) -> None:
    """Stop on a value of the wrong type for its key's default: an int key
    takes an int (not a bool), a float key a finite int or float, a list key
    a list. Of the keys that default to None, ``epsilon`` takes a finite
    positive number or null and the file keys a path string or null."""
    for key, value in overrides.items():
        default = DEFAULTS[name][key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if default is None:
            if key == "epsilon":
                ok = value is None or (number and math.isfinite(value) and value > 0)
                expected = "a finite positive number or null"
            else:
                ok, expected = value is None or isinstance(value, str), "a path string or null"
        elif isinstance(default, int):
            ok, expected = number and isinstance(value, int), "an integer"
        elif isinstance(default, float):
            ok, expected = number and math.isfinite(value), "a finite number"
        elif isinstance(default, list):
            ok, expected = isinstance(value, list), "a list"
        else:
            continue
        if not ok:
            raise SystemExit(f"{name}: config key {key} must be {expected}, got {value!r}")


def _effective_config(name: str, args) -> dict:
    """DEFAULTS[name] updated by the config file, then the flags; a key that
    the experiment does not read, or a value of the wrong type, is rejected
    rather than hashed and ignored or cast."""
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise SystemExit(f"{name}: config file {args.config} must hold a JSON object")
        overrides.update(from_file)
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides.update(args.set or [])
    unknown = sorted(set(overrides) - set(DEFAULTS[name]))
    if unknown:
        raise SystemExit(f"{name}: unknown config key(s) {', '.join(unknown)}; "
                         f"known: {', '.join(sorted(DEFAULTS[name]))}")
    _check_types(name, overrides)
    return {**DEFAULTS[name], **overrides}


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=lambda v: v.item())
        fh.write("\n")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# Rows formatted and written at a time: enough to amortize the per-block
# slicing, few enough that no table's cell strings are all held at once.
CSV_BLOCK_ROWS = 256


def _write_rows_csv(path, table, comment: str) -> None:
    """The columns of ``table`` under their names, one CSV line per row, each
    cell as :func:`_fmt` writes it, formatted and written a block of rows at
    a time. A table whose columns differ in length, or anything but a table,
    raises ``ValueError`` before the file is opened."""
    rows = batteries.table_length(table)
    names = list(table)
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        if not names:
            return
        fh.write(",".join(names) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            cells = [_cells(table[name][start:start + CSV_BLOCK_ROWS]) for name in names]
            fh.writelines(",".join(line) + "\n" for line in zip(*cells))


def _cells(column) -> list:
    """The text of every cell of a block of one column."""
    return list(map(_fmt, column.tolist() if isinstance(column, np.ndarray) else column))


def _write_outputs(name: str, config: dict, out_dir: str,
                   result: batteries.ExperimentResult, failures: list) -> None:
    """Make ``out_dir`` if needed and write the result's tables, its summary
    and, if ``failures`` (the result's failing records) is not empty,
    ``failures.json``, each stamped with the config hash and the seed."""
    os.makedirs(out_dir, exist_ok=True)
    meta = {"config_hash": _config_hash(config)}
    seed = config.get("seed", config.get("phase_seed"))
    if seed is not None:
        meta["seed"] = seed
    comment = f"config={meta['config_hash']}" + ("" if seed is None else f" seed={seed}")
    stamp = {f"_{k}": v for k, v in meta.items()}
    for file_name, table in result.tables.items():
        path = os.path.join(out_dir, file_name)
        if file_name.endswith(".csv"):
            _write_rows_csv(path, table, comment)
        else:
            _write_json(path, {**table, **stamp})
    _write_json(os.path.join(out_dir, f"{name}_summary.json"),
                {**result.summary, **stamp, "_experiment": name})
    if failures:
        _write_json(os.path.join(out_dir, "failures.json"),
                    {"experiment": name, **meta, "failures": failures})


RUNNERS = {
    "figure3": batteries.run_figure3,
    "bounds": batteries.run_bounds,
    "slow": batteries.run_slow,
    "gaussian": batteries.run_gaussian,
    "haar": batteries.run_haar,
    "eta": batteries.run_eta,
    "spectrum-info": batteries.run_spectrum_info,
}


def _parse_set(pairs):
    out = []
    for item in pairs or []:
        key, _, raw = item.partition("=")
        if not _:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((key, value))
    return out


def _run_errors() -> tuple:
    """What ends a run with one line: an input it cannot read or run on, or
    a worker process of its pool that died. Evaluated only as an exception
    is matched, so a run that succeeds never imports the pool's module."""
    from concurrent.futures.process import BrokenProcessPool
    return ValueError, OSError, MemoryError, BrokenProcessPool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qequil",
        description="Equilibration numerics: seeded experiments with CSV/JSON artifacts.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, runner in RUNNERS.items():
        p = sub.add_parser(name, help=(runner.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (value parsed as JSON)")
    args = parser.parse_args(argv)
    args.set = _parse_set(args.set)
    name = args.experiment
    try:
        config = _effective_config(name, args)
        result = RUNNERS[name](config)
    except _run_errors() as exc:
        raise SystemExit(f"{name}: {exc}") from exc
    failures = result.failures  # each failing record is built here, once
    try:
        _write_outputs(name, config, args.out, result, failures)
    except OSError as exc:  # an output path it cannot write; a ValueError is a fault
        raise SystemExit(f"{name}: {exc}") from exc
    if failures:
        print(f"{name}: {len(failures)} check(s) FAILED", file=sys.stderr)
        return 1
    print(json.dumps({name: result.summary}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
