"""Command-line entry point: train, ablate, report, eval."""

from __future__ import annotations

import argparse
import os
import sys

from ..errors import FemaError
from .ablate import AXES, cmd_ablate
from .evaluate import cmd_eval, format_table
from .report import DEFAULT_WINDOW, cmd_report
from .train import cmd_train


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fema",
        description="Train, sweep, report, and evaluate the failure-memory "
                    "agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run every seed of a config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed-offset", type=int, default=0)

    p_ablate = sub.add_parser("ablate", help="sweep one failure-memory knob")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--axis", required=True, choices=sorted(AXES))
    p_ablate.add_argument("--values", required=True,
                          help="comma-separated axis values")

    p_report = sub.add_parser("report", help="summarize a run or sweep dir")
    p_report.add_argument("directory")
    p_report.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                          help="trailing episodes in the smoothing window")

    p_eval = sub.add_parser("eval", help="deterministic checkpoint rollouts")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--env", required=True)
    p_eval.add_argument("--episodes", type=int, required=True)
    p_eval.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            out_dir = cmd_train(args.config, seed_offset=args.seed_offset,
                                environ=dict(os.environ))
            print(f"run complete: {out_dir}")
        elif args.command == "ablate":
            values = [tok.strip() for tok in args.values.split(",")
                      if tok.strip()]
            out_dir = cmd_ablate(args.config, args.axis, values,
                                 environ=dict(os.environ))
            print(f"sweep complete: {out_dir}")
        elif args.command == "report":
            cmd_report(args.directory, window=args.window)
            report_dir = os.path.join(args.directory, "report")
            with open(os.path.join(report_dir, "summary.txt"),
                      encoding="utf-8") as fh:
                print(fh.read(), end="")
            print(f"report written: {report_dir}")
        elif args.command == "eval":
            rows = cmd_eval(args.ckpt, args.env, args.episodes, args.seed)
            print(format_table(rows))
        return 0
    except (FemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
