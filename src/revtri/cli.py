"""Command-line surface: check, fuzz, extremal, sweep.

Exit codes: 0 all bounds hold, 1 a bound was violated, 2 a hypothesis failed,
3 usage, input or validation error or an input too large to allocate, 141
(128 + SIGPIPE) standard output was closed before everything was written to it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bounds as B
from .errors import RevtriError
from .extremal import RECIPES, extremal_scenario, recipe_of
from .fuzz import fuzz
from .hilbert import COMPLEX, REAL
from .scenario import (
    EXIT_CODES,
    EXIT_INPUT_ERROR,
    RunReport,
    _rollup,
    _write_json,
    exit_code,
    load_scenario,
    report_to_csv,
    report_to_json,
    run,
    save_scenario,
)
from .sweep import _sweepable, sweep, sweep_to_csv

#: the exit code for a closed standard output, the one a shell reports for SIGPIPE
_EXIT_BROKEN_PIPE = 141

#: ``extremal --<key>`` (``_`` written ``-``) per key of every recipe, typed by its default.
_RECIPE_FLAGS = {key: type(value) for r in RECIPES.values() for key, value in r.defaults.items()}


def _write_report(report: RunReport, out: str | None) -> None:
    if out is None:
        return
    path = Path(out)
    text = report_to_csv(report) if path.suffix == ".csv" else report_to_json(report)
    path.write_text(text, encoding="utf-8")


def _print_report(report: RunReport) -> None:
    print(f"scenario {report.scenario_id}: {report.rollup}")
    print(f"  defect {report.defect.value!r} (err {report.defect.err_est:.3e})")
    for r in report.results:
        print(f"  {r.bound_id:10s} {r.verdict:18s} lhs={r.lhs!r} rhs={r.rhs!r} "
              f"margin={r.margin!r} err_budget={r.err_budget:.3e}")


def _cmd_check(args) -> int:
    scenario = load_scenario(args.file)
    report = run(scenario)
    _print_report(report)
    _write_report(report, args.out)
    return exit_code(report)


def _cmd_fuzz(args) -> int:
    summary = fuzz(args.bound, args.trials, args.seed, d=args.dim, field=args.field,
                   n_family=args.n_family)
    data = summary._tree()
    print(f"fuzz {summary.bound_id}: {summary.holds}/{summary.trials} holds, "
          f"{summary.violated} violated, {summary.hypothesis_failed} hypothesis_failed")
    print(f"  worst margin {summary.worst_margin!r} at trial {summary.worst_margin_trial}")
    if "printed_form" in data:
        pf = data["printed_form"]
        print(f"  printed-form margins: min {pf['min_margin']!r} max {pf['max_margin']!r} "
              f"negative in {pf['negative_count']} trials (diagnostic only)")
    if args.out:
        _write_json(data, args.out)
    counts = {B.VIOLATED: summary.violated, B.HYPOTHESIS_FAILED: summary.hypothesis_failed}
    return EXIT_CODES[_rollup(verdict for verdict, n in counts.items() if n)]


def _extremal_params(args) -> dict:
    return {k: getattr(args, k) for k in _RECIPE_FLAGS if getattr(args, k) is not None}


def _cmd_extremal(args) -> int:
    scenario = extremal_scenario(args.bound, _extremal_params(args), d=args.dim,
                                 field=args.field, interval=tuple(args.interval),
                                 n_panels=args.panels)
    report = run(scenario)
    _print_report(report)
    gap = report.results[0].margin
    print(f"  equality gap {gap!r}")
    if args.scenario_out:
        save_scenario(scenario, args.scenario_out)
    _write_report(report, args.out)
    return exit_code(report)


def _cmd_sweep(args) -> int:
    base = load_scenario(args.base) if args.base else None
    rows, warnings = sweep(args.bound, args.param, getattr(args, "from"), args.to,
                           args.steps, base)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = sweep_to_csv(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_CODES[_rollup(r.verdict for r in rows)]


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as input errors: argparse's own 2 means "a hypothesis failed"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revtri",
        description="Certify reverse triangle inequalities on sampled vector-valued integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a scenario file")
    p_check.add_argument("file")
    p_check.add_argument("--out", help="write the report (JSON, or CSV if path ends in .csv)")
    p_check.set_defaults(func=_cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="seeded hypothesis-by-construction fuzzing")
    p_fuzz.add_argument("--bound", required=True, choices=sorted(B.ALL_BOUND_IDS))
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--dim", type=int, default=4)
    p_fuzz.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    p_fuzz.add_argument("--n-family", type=int, default=3)
    p_fuzz.add_argument("--out", help="write the summary JSON")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_ext = sub.add_parser("extremal", help="build and certify an equality-case scenario")
    p_ext.add_argument("--bound", required=True, choices=sorted(filter(recipe_of, B.BOUNDS)))
    for key, kind in _RECIPE_FLAGS.items():
        p_ext.add_argument("--" + key.replace("_", "-"), type=kind)
    p_ext.add_argument("--dim", type=int, default=None, help="dimension d (default the recipe's)")
    p_ext.add_argument("--field", choices=(REAL, COMPLEX), default=REAL)
    p_ext.add_argument("--interval", type=float, nargs=2, default=(0.0, 1.0))
    p_ext.add_argument("--panels", type=int, default=None)
    p_ext.add_argument("--out", help="write the report (JSON, or CSV if path ends in .csv)")
    p_ext.add_argument("--scenario-out", help="write the scenario file (golden fixture)")
    p_ext.set_defaults(func=_cmd_extremal)

    p_sweep = sub.add_parser("sweep", help="tabulate a bound across a parameter range")
    p_sweep.add_argument("--bound", required=True, choices=sorted(filter(_sweepable, B.BOUNDS)))
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--emit", choices=("csv",), default="csv")
    p_sweep.add_argument("--base", help="base scenario file supplying fixed parameters")
    p_sweep.add_argument("--out", help="write the CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except (RevtriError, MemoryError) as exc:  # MemoryError: sizes too large to allocate
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            code = EXIT_INPUT_ERROR
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the recipe of Python's signal docs: the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
