"""Hyperparameter sweeps over the failure-memory knobs.

Each axis value becomes one run directory named <axis>=<value> under the
config's out_dir, trained for every seed, followed by a per-value aggregate
curve CSV. Every value is parsed before any cell trains, and a value equal
to an earlier one is refused. Cells run one after another, each through
`train.run_config`, which runs the cell's seeds in parallel processes;
every cell writes only to its own directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from .. import serialize
from ..errors import ConfigError, UsageError
from .config import RunConfig, parse_config
from .report import DEFAULT_WINDOW, curve_rows, load_run_dir, _write_csv
from .train import run_config

# axis name -> (FemaConfig field, parser)
AXES = {
    "epsilon": ("match_radius", float),
    "n_candidates": ("n_candidates", int),
    "update_m": ("update_every", int),
    "top_o": ("max_matches", int),
    "lambda_risk": ("risk_weight", float),
    "train_epochs": ("train_epochs", int),
}


def derive_cell(rc: RunConfig, axis: str, raw_value: str) -> RunConfig:
    field, parse = AXES[axis]
    try:
        value = parse(raw_value)
    except ValueError:
        raise UsageError(f"axis {axis} needs {parse.__name__} values, "
                         f"got {raw_value!r}")
    cell_name = f"{axis}={raw_value}"
    cell = replace(
        rc,
        out_dir=os.path.join(rc.out_dir, cell_name),
        sweep_axis=axis,
        sweep_value=str(raw_value),
        fema=replace(rc.fema, **{field: value}),
    )
    return cell.validate()


def cmd_ablate(config_path, axis: str, values: list,
               environ: dict | None = None) -> str:
    """Run the sweep and write per-value curves; returns the sweep root."""
    if axis not in AXES:
        raise UsageError(f"unknown axis {axis!r}; choose from "
                         f"{', '.join(sorted(AXES))}")
    if not values:
        raise UsageError("need at least one axis value")
    rc = parse_config(config_path, environ=environ)
    if not rc.fema_enabled:
        raise ConfigError(f"axis {axis!r} tunes the failure memory; "
                          "the config has it disabled")
    derived = {}    # parsed value -> (its spelling, its cell), before any training
    for raw in map(str, values):
        cell = derive_cell(rc, axis, raw)
        value = getattr(cell.fema, AXES[axis][0])
        if value in derived:
            raise UsageError(f"axis {axis} values {derived[value][0]!r} and {raw!r} "
                             "are the same value")
        derived[value] = raw, cell
    sweep_dir = rc.out_dir
    os.makedirs(sweep_dir, exist_ok=True)
    cells = []
    for raw, cell in derived.values():
        run_config(cell)
        _write_csv(
            os.path.join(sweep_dir, f"curve_{axis}={raw}.csv"),
            ["step", "mean_return", "std_return", "n_seeds"],
            curve_rows(load_run_dir(cell.out_dir), DEFAULT_WINDOW),
        )
        cells.append({"value": raw, "dir": os.path.basename(cell.out_dir)})
    sweep = json.dumps({"axis": axis, "cells": cells, "seeds": list(rc.seeds)},
                       sort_keys=True, indent=2)
    serialize.write_atomic(os.path.join(sweep_dir, "sweep.json"),
                           (sweep + "\n").encode("utf-8"))
    return sweep_dir
