"""Command-line front end: ``switchgame solve <scenario>``.

Exit codes: 0 on success, 1 when an asserted invariant failed during the run,
2 for configuration problems (unreadable or invalid scenario, bad task list,
a report directory that cannot be created or cleared).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ScenarioError
from .runner import parse_scenario, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchgame",
        description="Solve two-player switching-game BSDE scenarios on discrete "
                    "Brownian trees and write machine-readable reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run a scenario's task pipeline")
    solve.add_argument("scenario", help="path to a scenario JSON file")
    solve.add_argument("--out", metavar="DIR", default=None,
                       help="report directory (default: the scenario's out_dir)")
    solve.add_argument("--seed", metavar="S", type=int, default=0,
                       help="run seed; forked per task for catalog strategies")
    solve.add_argument("--tasks", metavar="LIST", default=None,
                       help="comma-separated task subset overriding the scenario's plan")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        tasks = None
        if args.tasks is not None:
            tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
            if not tasks:
                raise ScenarioError(["--tasks: empty task list"])
        result = run(scenario, out_dir=args.out, seed=args.seed, tasks=tasks)
    except ScenarioError as exc:
        for msg in exc.messages:
            print(msg, file=sys.stderr)
        return 2
    for msg in result.failures:
        print(msg, file=sys.stderr)
    print(f"reports written to {result.out_dir} (exit {result.exit_code})")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
