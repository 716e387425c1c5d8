"""One benchmark job in its own process.

    python3 perfbench/job.py --workload NAME --seed N --trace 0|1 \
        --t0 MONOTONIC --out RESULT.json [--mini] [--setup-only]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, imports and the workload's
set-up. The tracer is installed after set-up, so spans cover only the timed
work. The result dict is written to `--out`; the exit code is 0 whenever the
job ran to the end, whatever its output checks found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):   # numpy without the dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mini", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    spec = workloads.workload_spec(args.workload, mini=args.mini)
    run_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if spec["kind"] == "train":
            state = workloads.train_setup(spec, ROOT, args.seed, run_dir)
        else:
            state = workloads.store_setup(spec, args.seed)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        setup_s = time.monotonic() - args.t0
        result = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "setup_s": setup_s}
        if not args.setup_only:
            if tracer is not None:
                tracer.install()
            try:
                if spec["kind"] == "train":
                    out = workloads.train_run(spec, state, args.seed, run_dir)
                else:
                    out = workloads.store_run(spec, state, run_dir)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            result.update(out)
            if tracer is not None:
                result["trace_summary"] = tracer.summary()
        result["peak_rss_mb"] = workloads.peak_rss_mb()
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
