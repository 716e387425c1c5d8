"""Benchmark entry point: one workload per call, each job in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With `--trace 0` it runs untraced jobs and
prints every end-to-end metric of BENCHMARK.json; with `--trace 1` it runs
pairs of an untraced and a traced job on the same inputs and prints every
per-layer metric. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. A fuller record (every job,
the environment, digests, all spans' totals) goes to
perfbench/out/result-<workload>-seed<N>-trace<T>.json.

BLAS, OpenMP and MKL are pinned to one thread in every job process, and the
setting is recorded with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PINNED_THREADS = "1"
MIN_SETUPS = 3
JOB_TIMEOUT_S = 170
SEED_STRIDE = 1000   # job k of workload seed n trains seed n * 1000 + k

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def git_rev(root: str) -> str:
    """HEAD commit read from the .git directory, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    """sha256 over src/ and configs/, so results from a checkout that is
    not a git repository still name the code they measured."""
    h = hashlib.sha256()
    for top in ("src", "configs"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, workload: str, mini: bool):
        self.workload = workload
        self.mini = mini
        self.spec = workloads.workload_spec(workload, mini=mini)
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = PINNED_THREADS
        self.env["PYTHONHASHSEED"] = "0"
        self.jobs = []

    def job(self, seed: int, trace: int, setup_only: bool = False) -> dict:
        """Run one job process to completion; returns its result dict, or a
        dict with `crashed` set when it failed or ran out of time."""
        os.makedirs(OUT, exist_ok=True)
        out = os.path.join(OUT, f"job-{os.getpid()}-{len(self.jobs)}.json")
        cmd = [sys.executable, os.path.join(HERE, "job.py"),
               "--workload", self.workload, "--seed", str(seed),
               "--trace", str(trace), "--out", out]
        if self.mini:
            cmd.append("--mini")
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        cmd += ["--t0", repr(t0)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=JOB_TIMEOUT_S)
            crashed = None if proc.returncode == 0 else (
                f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        except subprocess.TimeoutExpired:
            crashed = f"timed out after {JOB_TIMEOUT_S} s"
        result = {"seed": seed, "trace": trace, "setup_only": setup_only}
        if crashed is None:
            with open(out, encoding="utf-8") as fh:
                result.update(json.load(fh))
        else:
            result["crashed"] = crashed
        if os.path.exists(out):
            os.remove(out)
        self.jobs.append(result)
        return result

    def ops(self, job: dict) -> int:
        """Operations a job attempted: env steps, or records published."""
        if "ops" in job:
            return job["ops"]
        if self.spec["kind"] == "train":
            return self.spec["overrides"]["total_steps"]
        return self.spec["tails"]

    def failed(self, job: dict) -> bool:
        return bool(job.get("crashed") or job.get("errors"))


def run_untraced(r: Runner, seeds: list) -> dict:
    full = [r.job(s, 0) for s in seeds]
    k = 0
    while len(r.jobs) < MIN_SETUPS:
        r.job(seeds[k % len(seeds)], 0, setup_only=True)
        k += 1
    good = [j for j in full if not j.get("crashed")]
    metrics = {}
    if good:
        metrics = {
            "setup_s": median([j["setup_s"] for j in r.jobs
                               if not j.get("crashed")]),
            "ops_per_ref": median([j["ops"] * j["ref_s"] / j["timed_s"]
                                   for j in good]),
            "peak_rss_mb": median([j["peak_rss_mb"] for j in good]),
        }
    return metrics


def layer_value(name: str, s: dict):
    """One per-layer metric from a traced job's span summary."""
    layers, c = s["layers"], s["counters"]

    def stat(span, key):
        return layers.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    select_calls = stat("selection.select", "calls")
    special = {
        "selection.fallback_ratio":
            ratio(c.get("select.fallback", 0), select_calls),
        "selection.override_ratio":
            ratio(c.get("select.override", 0), c.get("select.scored", 0)),
        "selection.forward_per_decision":
            ratio(c.get("select.forward_calls", 0), select_calls),
        "memory.retrieve.hit_ratio":
            ratio(c.get("retrieve.hit", 0), stat("memory.retrieve", "calls")),
        "memory.records": c.get("memory.records", 0),
        "memory.pending_evicted": (c.get("memory.staged", 0)
                                   - c.get("memory.published_events", 0)
                                   - c.get("memory.pending", 0)
                                   - c.get("memory.trimmed", 0)),
    }
    if name in special:
        return special[name]
    span, _, key = name.rpartition(".")
    if key in ("calls", "busy_s", "self_s", "max_s"):
        return stat(span, key)
    if key == "s":
        return stat(span, "busy_s")
    return None


# Per-layer metrics taken from the untraced job of each pair, where the
# wrappers' own cost would distort a short operation's latency.
UNTRACED_LAYER_METRICS = {
    "decide.hit_p50_ms": lambda j: j.get("decide", {}).get("hit_p50_ms", 0.0),
    "decide.miss_p50_ms": lambda j: j.get("decide", {}).get("miss_p50_ms", 0.0),
    "decide.tail_ms": lambda j: j.get("decide", {}).get("tail_ms", 0.0),
    "snapshot.write_s": lambda j: j["snapshot_write_s"],
    "snapshot.load_s": lambda j: j["snapshot_load_s"],
}


def run_traced(r: Runner, seeds: list, per_layer: list) -> dict:
    pairs = [(r.job(s, 0), r.job(s, 1)) for s in seeds]
    for plain, traced in pairs:
        if plain.get("crashed") or traced.get("crashed"):
            continue
        if plain["digest"] != traced["digest"]:
            traced.setdefault("errors", []).append(
                f"traced digest {traced['digest'][:12]} differs from "
                f"untraced {plain['digest'][:12]}")
    good = [(p, t) for p, t in pairs
            if not p.get("crashed") and not t.get("crashed")]
    if not good:
        return {}
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_pct":
            value = median([100.0 * ((t["timed_s"] / t["ref_s"])
                                     / (p["timed_s"] / p["ref_s"]) - 1.0)
                            for p, t in good])
        elif name in UNTRACED_LAYER_METRICS:
            value = median([UNTRACED_LAYER_METRICS[name](p) for p, _ in good])
        else:
            values = [layer_value(name, t["trace_summary"]) for _, t in good]
            if values[0] is None:
                raise KeyError(f"per-layer metric {name!r} has no source")
            value = median(values)
        metrics[name] = value
    return metrics


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mini", action="store_true",
                    help="miniature sizes, for the benchmark's self-tests")
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    spec = workloads.workload_spec(args.workload, mini=args.mini)
    needed = [os.path.join(ROOT, "src", "fema", "__init__.py")]
    if spec["kind"] == "train":
        needed.append(os.path.join(ROOT, spec["config"]))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"not a fema checkout: missing {missing}", file=sys.stderr)
        return 2
    bench = load_benchmark()

    r = Runner(args.workload, args.mini)
    scaled = round(spec["jobs"] * args.seconds / workloads.REFERENCE_SECONDS)
    if args.trace:
        n = max(1, round(scaled / 2))
    else:
        n = max(MIN_SETUPS if spec["kind"] == "train" else 1, scaled)
    seeds = [args.seed * SEED_STRIDE + k for k in range(n)]
    t_start = time.monotonic()
    if args.trace:
        metrics = run_traced(r, seeds, bench["per_layer"])
        wanted = bench["per_layer"]
    else:
        metrics = run_untraced(r, seeds)
        wanted = bench["end_to_end"]

    full = [j for j in r.jobs if not j["setup_only"]]
    failed_jobs = [j for j in full if r.failed(j)]
    attempted = sum(r.ops(j) for j in full)
    failed = sum(r.ops(j) for j in failed_jobs)
    correct = not failed_jobs and bool(metrics)
    out_metrics = {m["name"]: {"value": metrics.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in wanted}

    env = next((j["env"] for j in r.jobs if "env" in j), {})
    env.update({"git_rev": git_rev(ROOT), "source_sha256": source_digest(ROOT),
                "workload_seed": args.seed, "job_seeds": seeds,
                "pinned_threads": PINNED_THREADS})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.monotonic() - t_start,
        "env": env, "jobs": r.jobs, "metrics": out_metrics,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)

    print("# env " + json.dumps(env, sort_keys=True))
    for j in r.jobs:
        note = j.get("crashed") or "; ".join(j.get("errors", [])) or "ok"
        kind = "setup-only" if j["setup_only"] else f"trace={j['trace']}"
        print(f"# job seed={j['seed']} {kind} "
              f"setup_s={j.get('setup_s', float('nan')):.3f} "
              f"timed_s={j.get('timed_s', float('nan')):.3f} "
              f"ref_s={j.get('ref_s', float('nan')):.4f} "
              f"digest={str(j.get('digest', ''))[:16]} {note}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
