"""Read-only analysis of finished runs: curves, tables, summary text.

A run directory holds seed*/ subdirectories (each with config.txt and
metrics.jsonl); a sweep directory holds <axis>=<value>/ run directories.
All outputs land in <directory>/report/ and are byte-stable, so running
the command twice changes nothing.

Smoothing is a trailing mean over the last `window` completed episodes
(default 20); the window is recorded in every output that uses it.
Steps-to-threshold counts the first step at which the smoothed return
reaches the config's threshold_return; seeds that never reach it count as
total_steps.
"""

from __future__ import annotations

import csv
import io
import os
import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import serialize
from ..errors import SerializationError, UsageError
from . import jsonl
from .config import parse_text

DEFAULT_WINDOW = 20
GRID_POINTS = 100
_SEED_DIR = re.compile(r"^seed(-?\d+)$")
_VARIANT_DIR = re.compile(r"^[a-z_]+=[^/]+$")
# Fields the report reads from each record kind; all but "end" are numbers.
_FIELDS = {
    "episode": ("step", "end", "return", "length", "fallback_rate",
                "memory_records"),
    "eval": ("step", "mean_return"),
}


@dataclass
class SeedSeries:
    seed: int
    steps: np.ndarray      # completed-episode end steps, ascending
    returns: np.ndarray
    lengths: np.ndarray
    fallback: np.ndarray   # cumulative fallback rate at each episode end
    eval_steps: np.ndarray
    eval_returns: np.ndarray
    total_steps: int
    threshold: Optional[float]


def smooth(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean over up to `window` points, shorter at the start."""
    out = np.empty(len(values))
    for i in range(len(values)):
        out[i] = values[max(0, i - window + 1):i + 1].mean()
    return out


def value_at(steps: np.ndarray, values: np.ndarray, grid_step: float) -> float:
    """Last value observed at or before grid_step; nan before the first."""
    idx = np.searchsorted(steps, grid_step, side="right") - 1
    return float(values[idx]) if idx >= 0 else float("nan")


def step_grid(total_steps: int, points: int = GRID_POINTS) -> np.ndarray:
    stride = max(total_steps // points, 1)
    return np.arange(stride, total_steps + 1, stride)


def _check_records(path, records: list) -> None:
    """Refuse a record that lacks, or mistypes, a field the report reads."""
    for index, record in enumerate(records, start=1):
        kind = record.get("kind")
        if not isinstance(kind, str):
            raise SerializationError(f"{path}: record {index} has no kind")
        for field in _FIELDS.get(kind, ()):
            if field not in record:
                raise SerializationError(
                    f"{path}: {kind} record {index} lacks {field!r}")
            value = record[field]
            if field != "end" and (isinstance(value, bool)
                                   or not isinstance(value, (int, float))):
                raise SerializationError(
                    f"{path}: {kind} record {index} has non-numeric "
                    f"{field} {value!r}")


def load_seed_dir(path) -> SeedSeries:
    config_path = os.path.join(path, "config.txt")
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SerializationError(f"cannot read {config_path}: {exc}") from exc
    rc = parse_text(text, source=config_path)
    metrics_path = os.path.join(path, "metrics.jsonl")
    records = jsonl.read_records(metrics_path)
    _check_records(metrics_path, records)
    ends = [r for r in records if r["kind"] == "episode"]
    if rc.fema_enabled and (not ends or ends[-1]["memory_records"] == 0):
        warnings.warn(f"{path}: the failure memory is enabled but never "
                      "published (memory_records == 0 at the end of the run)")
    episodes = [r for r in ends if r["end"] != "none"]
    evals = [r for r in records if r["kind"] == "eval"]
    seed_name = os.path.basename(os.path.normpath(path))
    match = _SEED_DIR.match(seed_name)
    return SeedSeries(
        seed=int(match.group(1)) if match else -1,
        steps=np.array([r["step"] for r in episodes], dtype=np.float64),
        returns=np.array([r["return"] for r in episodes], dtype=np.float64),
        lengths=np.array([r["length"] for r in episodes], dtype=np.float64),
        fallback=np.array([r["fallback_rate"] for r in episodes],
                          dtype=np.float64),
        eval_steps=np.array([r["step"] for r in evals], dtype=np.float64),
        eval_returns=np.array([r["mean_return"] for r in evals],
                              dtype=np.float64),
        total_steps=rc.total_steps,
        threshold=rc.threshold_return,
    )


def load_run_dir(path) -> list:
    names = sorted(
        (name for name in os.listdir(path) if _SEED_DIR.match(name)),
        key=lambda name: int(_SEED_DIR.match(name).group(1)),
    )
    series = []
    for name in names:
        seed_dir = os.path.join(path, name)
        if not os.path.exists(os.path.join(seed_dir, "metrics.jsonl")):
            warnings.warn(f"partial report: {seed_dir} has no metrics.jsonl")
            continue
        series.append(load_seed_dir(seed_dir))
    if not series:
        raise UsageError(f"no completed seed runs under {path}")
    return series


def _grid_rows(series_list: list, curves: list) -> list:
    """(step, mean, std over seeds, n_seeds) per grid step, from one
    (steps, values) curve per seed; steps no seed has reached are skipped."""
    rows = []
    for g in step_grid(max(s.total_steps for s in series_list)):
        vals = [value_at(steps, values, g) for steps, values in curves]
        vals = [v for v in vals if not np.isnan(v)]
        if vals:
            arr = np.array(vals)
            rows.append((int(g), float(arr.mean()), float(arr.std()), len(arr)))
    return rows


def curve_rows(series_list: list, window: int) -> list:
    """Smoothed training return per grid step, across seeds."""
    return _grid_rows(series_list, [(s.steps, smooth(s.returns, window))
                                    for s in series_list])


def fallback_rows(series_list: list) -> list:
    """Cumulative selector fallback rate per grid step, across seeds."""
    return _grid_rows(series_list, [(s.steps, s.fallback) for s in series_list])


def length_window_rows(series_list: list, edges: Optional[list] = None) -> list:
    """Mean episode length per step window, aggregated across seeds."""
    total = max(s.total_steps for s in series_list)
    if edges is None:
        third = total / 3.0
        edges = [("early", 0.0, third), ("middle", third, 2 * third),
                 ("late", 2 * third, float(total))]
    rows = []
    for label, start, end in edges:
        per_seed = []
        for s in series_list:
            inside = (s.steps >= start) & (s.steps < end if end < total
                                           else s.steps <= end)
            if inside.any():
                per_seed.append(float(s.lengths[inside].mean()))
        if per_seed:
            arr = np.array(per_seed)
            rows.append((label, int(start), int(end), float(arr.mean()),
                         float(arr.std()), len(arr)))
        else:
            rows.append((label, int(start), int(end), float("nan"), 0.0, 0))
    return rows


def max_mean_return(series_list: list, window: int) -> tuple:
    """(step, value) of the highest seed-mean return over eval points.

    Uses deterministic evaluation records when every seed has them;
    otherwise falls back to the smoothed training-return grid.
    """
    if all(len(s.eval_steps) > 0 for s in series_list):
        common = sorted(set.intersection(
            *(set(s.eval_steps.tolist()) for s in series_list)))
        if common:
            best_step, best = None, -np.inf
            for g in common:
                vals = [float(s.eval_returns[s.eval_steps == g][0])
                        for s in series_list]
                mean = float(np.mean(vals))
                if mean > best:
                    best_step, best = int(g), mean
            return best_step, best
    rows = curve_rows(series_list, window)
    if not rows:
        return 0, float("nan")
    best = max(rows, key=lambda row: row[1])
    return best[0], best[1]


def steps_to_threshold(series: SeedSeries, window: int,
                       threshold: float) -> int:
    """First episode-end step with smoothed return >= threshold."""
    smoothed = smooth(series.returns, window)
    hits = np.nonzero(smoothed >= threshold)[0]
    if len(hits) == 0:
        return series.total_steps
    return int(series.steps[hits[0]])


def _write_csv(path, header: list, rows: list) -> None:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in row])
    serialize.write_atomic(path, text.getvalue().encode("utf-8"))


def _variant_sort_key(name: str):
    value = name.split("=", 1)[1]
    try:
        return (0, float(value), name)
    except ValueError:
        return (1, 0.0, name)


def find_variants(directory) -> list:
    return sorted((name for name in os.listdir(directory)
                   if _VARIANT_DIR.match(name)
                   and os.path.isdir(os.path.join(directory, name))),
                  key=_variant_sort_key)


def report_run(directory, window: int = DEFAULT_WINDOW) -> dict:
    """Write a single-run report; returns its headline numbers."""
    series = load_run_dir(directory)
    out = os.path.join(directory, "report")
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "curve.csv"),
               ["step", "mean_return", "std_return", "n_seeds"],
               curve_rows(series, window))
    _write_csv(os.path.join(out, "fallback.csv"),
               ["step", "mean_fallback_rate", "std_fallback_rate", "n_seeds"],
               fallback_rows(series))
    _write_csv(os.path.join(out, "lengths.csv"),
               ["window", "start_step", "end_step", "mean_length",
                "std_length", "n_seeds"],
               length_window_rows(series))
    best_step, best = max_mean_return(series, window)
    _write_csv(os.path.join(out, "max_return.csv"),
               ["best_step", "max_mean_return"], [(best_step, best)])

    threshold = series[0].threshold
    result = {
        "window": window,
        "seeds": [s.seed for s in series],
        "max_mean_return": best,
        "max_mean_return_step": best_step,
        "threshold": threshold,
    }
    if threshold is not None:
        per_seed = [(s.seed, steps_to_threshold(s, window, threshold))
                    for s in series]
        _write_csv(os.path.join(out, "steps_to_threshold.csv"),
                   ["seed", "steps_to_threshold"], per_seed)
        result["steps_to_threshold_mean"] = float(
            np.mean([v for _, v in per_seed]))

    lines = [
        f"seeds: {', '.join(str(s.seed) for s in series)}",
        f"smoothing window: trailing {window} episodes",
        f"max mean return: {best!r} at step {best_step}",
    ]
    if threshold is not None:
        lines.append(f"threshold return: {threshold!r}")
        lines.append("steps to threshold (unreached counts as total_steps): "
                     f"{result['steps_to_threshold_mean']!r}")
    serialize.write_atomic(os.path.join(out, "summary.txt"),
                           ("\n".join(lines) + "\n").encode("utf-8"))
    return result


def report_sweep(directory, window: int = DEFAULT_WINDOW) -> dict:
    """Write per-variant reports plus cross-variant comparison tables."""
    variants = find_variants(directory)
    if not variants:
        raise UsageError(f"no <axis>=<value> run directories under {directory}")
    out = os.path.join(directory, "report")
    os.makedirs(out, exist_ok=True)
    per_variant = {}
    for name in variants:
        per_variant[name] = report_run(os.path.join(directory, name), window)

    max_rows = [(name, per_variant[name]["max_mean_return_step"],
                 per_variant[name]["max_mean_return"]) for name in variants]
    _write_csv(os.path.join(out, "max_return.csv"),
               ["variant", "best_step", "max_mean_return"], max_rows)
    lines = [f"smoothing window: trailing {window} episodes",
             f"variants: {', '.join(variants)}"]
    if all(per_variant[name].get("steps_to_threshold_mean") is not None
           for name in variants):
        threshold_rows = [(name, per_variant[name]["steps_to_threshold_mean"])
                          for name in variants]
        _write_csv(os.path.join(out, "steps_to_threshold.csv"),
                   ["variant", "mean_steps_to_threshold"], threshold_rows)
        for name, steps in threshold_rows:
            lines.append(f"steps to threshold {name}: {steps!r}")
    serialize.write_atomic(os.path.join(out, "summary.txt"),
                           ("\n".join(lines) + "\n").encode("utf-8"))
    return per_variant


def cmd_report(directory, window: int = DEFAULT_WINDOW):
    """Dispatch on layout: seed*/ children mean a run, axis=value a sweep."""
    if not os.path.isdir(directory):
        raise UsageError(f"not a directory: {directory}")
    if find_variants(directory):
        return report_sweep(directory, window)
    return report_run(directory, window)
