"""Command-line interface.

    bdli run <config-or-builtin> [--method M] [--steps N] [--h H]
             [--tol T] [--out PATH]
    bdli convergence <config-or-builtin> [same flags]
    bdli compare <config-or-builtin> [flags except --method]
    bdli list-builtins

``--method`` alone picks the stepper: bdli, dli:<rule> (a built-in rule or
the config's own), boris or rk4.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence or
a non-finite state, 4 field singularity.  On 3 and 4 ``run`` still writes
the series of the states reached before the failure and names its path.
``--out`` is the series file of ``run``, the table file of ``convergence``
and the directory of ``compare``; the driver each command calls checks that
path and writes to it.  The library raises each error where it finds it, a
bad input or output path before the first integration; ``main`` alone maps
errors to codes.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    BUILTIN_SCENARIOS,
    ConfigError,
    builtin_scenario,
    compare_methods,
    convergence_study,
    load_run,
    run_scenario,
    _BUILTIN_DOCS,
)
from .fields import FieldSingularityError
from .integrators import NonConvergenceError, SingularityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULARITY = 4


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("scenario", help="config file path or builtin scenario name")
    p.add_argument("--steps", help="number of time steps")
    p.add_argument("--h", dest="h", help="step size (number or e.g. 'pi/20')")
    p.add_argument("--tol", help="fixed-point solver tolerance")
    p.add_argument("--out", help="output path (series file / study table)")


def _load_run(args, output=None):
    """``experiments.load_run`` of the scenario argument and the flags: the
    one way a flag reaches the ``Scenario``."""
    return load_run(args.scenario, method=args.method, n_steps=args.steps,
                    h=args.h, tolerance=args.tol, output=output)


def _cmd_run(args) -> int:
    scn = _load_run(args, output=args.out)[0]
    summary = run_scenario(scn)
    sys.stdout.write(summary.as_text())
    sys.stdout.write(f"series written to {summary.series_path}\n")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    scn, hs, href, _ = _load_run(args)
    sys.stdout.write(convergence_study(scn, hs, href, args.out).as_text())
    return EXIT_OK


def _cmd_compare(args) -> int:
    scn, _, _, methods = _load_run(args)
    sys.stdout.write(compare_methods(scn, methods, out_dir=args.out).as_text())
    return EXIT_OK


def _cmd_list_builtins(_args) -> int:
    for name in BUILTIN_SCENARIOS:
        scn = builtin_scenario(name)
        print(
            f"{name:<10} field={scn.field['name']:<18} h={_BUILTIN_DOCS[name]['h']} "
            f"n_steps={scn.n_steps} x0={scn.x0} v0={scn.v0}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdli",
        description="Energy-preserving charged-particle integrators "
        "(discrete line integral, Boris, RK4).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one scenario and write series")
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="self-convergence study")
    _add_common_flags(p_conv)
    p_conv.set_defaults(func=_cmd_convergence)

    for p in (p_run, p_conv):  # compare runs the config's "methods" list instead
        p.add_argument("--method", help="integrator: bdli, dli:<rule> (a built-in "
                       "rule or the config's own), boris, rk4")

    p_cmp = sub.add_parser("compare", help="run several methods side by side")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare, method=None)

    p_list = sub.add_parser("list-builtins", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list_builtins)
    return parser


def _report_partial_series(exc: Exception):
    path = getattr(exc, "series_path", None)
    if path:
        print(f"partial series written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        _report_partial_series(exc)
        return EXIT_NONCONVERGENCE
    except (SingularityError, FieldSingularityError) as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        _report_partial_series(exc)
        return EXIT_SINGULARITY


if __name__ == "__main__":
    raise SystemExit(main())
