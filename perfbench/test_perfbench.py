"""Self-tests for the benchmark, at miniature sizes.

    python3 -m pytest perfbench -q

They check the BENCHMARK.json format, that every named metric is printed
with its unit, that span self time never exceeds busy time, that tracing
leaves the run's outputs byte-identical, and that the reference retrieval
follows its definition.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--mini"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def test_benchmark_json_format():
    bench = load_bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    seen = set(names)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        assert m["name"] not in seen
        seen.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = load_bench()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        record = os.path.join(
            HERE, "out", f"result-{workload}-seed7-trace1.json")
        with open(record, encoding="utf-8") as fh:
            jobs = json.load(fh)["jobs"]
        plain = [j["digest"] for j in jobs if j["trace"] == 0]
        traced = [j["digest"] for j in jobs if j["trace"] == 1]
        assert plain and plain == traced


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sac_cliff_plain", 0, cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _nested(n):
    return n if n == 0 else _nested(n - 1)


def test_self_time_at_most_busy_time():
    t = tracer.Tracer()
    outer = t._wrap(lambda f, n: f(n), "test.outer")
    global _nested
    plain = _nested
    _nested = t._wrap(plain, "test.nested")
    try:
        for n in range(5):
            outer(_nested, n)
    finally:
        _nested = plain
    s = t.summary()
    assert s["spans"] == 5 + sum(n + 1 for n in range(5))
    assert s["layers"]["test.nested"]["calls"] == 15
    for st in s["layers"].values():
        assert 0.0 <= st["self_s"] <= st["busy_s"] + 1e-12
        assert st["max_s"] <= st["busy_s"] + 1e-12
    assert s["layers"]["test.outer"]["busy_s"] >= \
        s["layers"]["test.nested"]["busy_s"]


def test_install_covers_named_layers_and_uninstall_restores():
    import fema.memory
    import fema.selection
    from fema.agents.sac import SacAgent

    before = (fema.selection.select, fema.memory.FailureMemory.update,
              SacAgent.__dict__["update"])
    t = tracer.Tracer().install()
    try:
        assert fema.selection.select is not before[0]
        assert fema.memory.FailureMemory.update is not before[1]
        import fema.agents.sac as sac
        assert sac.capture_failure is fema.memory.capture_failure
        assert sac.capture_failure.__wrapped__ is not None
    finally:
        t.uninstall()
    after = (fema.selection.select, fema.memory.FailureMemory.update,
             SacAgent.__dict__["update"])
    assert after == before


class _Rec:
    def __init__(self, z, ret, seq):
        import numpy as np
        self.z_s = np.asarray(z, dtype=float)
        self.mc_return = ret
        self.event_seq = seq
        self.step_idx = 0


def test_brute_force_orders_by_return_then_insertion():
    recs = [_Rec([0.0, 0.0], 1.0, 0), _Rec([0.1, 0.0], -1.0, 1),
            _Rec([0.0, 0.1], 1.0, 2), _Rec([5.0, 5.0], -9.0, 3),
            _Rec([0.0, 0.2], -1.0, 4)]
    ids = workloads.brute_force_ids(recs, [0.0, 0.0], radius=0.2,
                                    max_matches=3)
    assert ids == [(1, 0), (4, 0), (0, 0)]


def test_decide_tail_leaves_ten_samples_beyond():
    stats = workloads.decide_stats([float(i) for i in range(50)],
                                   [float(i) for i in range(50, 100)])
    assert stats["n"] == 100
    assert stats["tail_ms"] == 89.0 and stats["tail_pct"] == 90.0
