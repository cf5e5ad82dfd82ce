"""Command-line entry point: reproduce any paper experiment by id.

Usage::

    python -m repro list
    python -m repro fig10
    python -m repro all --selfcheck
    python -m repro run --jobs 4 --filter fig02
    python -m repro report
    python -m repro verify --ops 2000 --seed 0 --scheme hpmp
    python -m repro profile fig11/gap-rocket --json

An experiment id runs that experiment's campaign cells in-process and
prints its tables and shape claims.  ``run`` orchestrates the campaign
across a process pool (:mod:`repro.runner`); ``report`` renders every table
from a campaign's stored rows; ``verify`` runs the differential fuzzers
from :mod:`repro.verify`; ``--selfcheck`` installs the shadow validator on
every engine an experiment builds, re-checking each timed access against
the functional permission model (identical numbers, non-zero exit on
divergence).  Exit status: 0 on success, 1 when a claim fails, 2 on usage
errors (including unknown experiment ids or flags).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import ALL_EXPERIMENTS, SHARDS


def _listing() -> str:
    lines = ["Reproduce a paper experiment. Available ids:"]
    for name, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        cells = len(SHARDS.get(name, ()))
        lines.append(f"  {name:10s} {doc}  [{cells} cell{'s' if cells != 1 else ''}]")
    lines.append("  all        run every experiment in sequence")
    lines.append("  run        orchestrate the campaign across a process pool (run --help)")
    lines.append("  report     render every results table from a campaign's rows (report --help)")
    lines.append("  verify     run the differential self-verification fuzzers (verify --help)")
    lines.append("  profile    cProfile one experiment or campaign cell (profile --help)")
    lines.append("options: --selfcheck   shadow-validate every timed access")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's experiments by id.",
        epilog=_listing(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["list"],
        metavar="id",
        help="experiment ids (see the list below), 'all', or 'list'",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="shadow-validate every timed access against the functional model",
    )
    return parser


def _run_experiments(targets: List[str], selfcheck: bool) -> int:
    """Run each target's cells in-process and print its render and claims."""
    from .experiments.report import selfcheck_line
    from .runner.cli import print_claims
    from .runner.tasks import run_experiment

    if selfcheck:
        from .verify import disable_selfcheck, enable_selfcheck, reset_selfcheck_stats

        enable_selfcheck()
    failures = 0
    try:
        for target in targets:
            # Reset per experiment so each selfcheck line reports that
            # experiment's own counts, not the cumulative campaign total.
            if selfcheck:
                reset_selfcheck_stats()
            print(f"\n===== {target} =====")
            tables = ALL_EXPERIMENTS[target].render(run_experiment(target))
            print("\n\n".join(table.text for table in tables))
            failures += print_claims(target, tables)
            if selfcheck:
                print(selfcheck_line())
    finally:
        if selfcheck:
            disable_selfcheck()
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    # The argparse sub-CLIs own everything after their name.
    if argv and argv[0] == "verify":
        from .verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "run":
        from .runner.cli import main as run_main

        return run_main(argv[1:])
    if argv and argv[0] == "report":
        from .runner.cli import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "profile":
        from .runner.profile import main as profile_main

        return profile_main(argv[1:])

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles -h (0) and bad flags (2)
        return int(exc.code or 0)

    targets = list(args.targets) or ["list"]
    if targets == ["list"]:
        print(_listing())
        return 0
    if targets[0] == "all":
        targets = list(ALL_EXPERIMENTS)
    unknown = [t for t in targets if t not in ALL_EXPERIMENTS]
    if unknown:
        parser.print_usage(sys.stderr)
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    return _run_experiments(targets, args.selfcheck)


if __name__ == "__main__":
    raise SystemExit(main())
