"""Command-line interface.

    bdli run <config-or-builtin> [--method M] [--rule R] [--steps N]
             [--h H] [--tol T] [--out PATH] [--relative-errors]
    bdli convergence <config-or-builtin> [flags]
    bdli compare <config-or-builtin> [flags]
    bdli list-builtins

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence or
a non-finite state, 4 field singularity.  On 3 and 4 ``run`` still writes
the series of the states reached before the failure and names its path.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    BUILTIN_SCENARIOS,
    ConfigError,
    Scenario,
    builtin_scenario,
    compare_methods,
    convergence_study,
    parse_step_size,
    run_scenario,
    _load_document,
    _method_for_rule,
    _scenario_from_dict,
)
from .fields import FieldSingularityError
from .integrators import NonConvergenceError, SingularityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_SINGULARITY = 4


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("scenario", help="config file path or builtin scenario name")
    p.add_argument("--method", help="integrator: bdli, dli:<rule>, boris, rk4")
    p.add_argument("--rule", help="quadrature rule: alone it means "
                   "--method dli:<rule>; with --method, the same rule")
    p.add_argument("--steps", type=int, help="number of time steps")
    p.add_argument("--h", dest="h", help="step size (number or e.g. 'pi/20')")
    p.add_argument("--tol", type=float, help="fixed-point solver tolerance")
    p.add_argument("--out", help="output path (series file / study table)")
    p.add_argument(
        "--relative-errors",
        action="store_true",
        help="emit relative instead of absolute error columns",
    )


def _load_scenario(arg: str) -> tuple[Scenario, dict]:
    """Scenario plus the raw config document (empty for builtins)."""
    if Path(arg).is_file():
        doc = _load_document(arg)
        return _scenario_from_dict(doc, arg), doc
    if arg in BUILTIN_SCENARIOS:
        return builtin_scenario(arg), {}
    raise ConfigError(
        f"{arg!r} is neither a config file nor a builtin scenario "
        f"(builtins: {', '.join(BUILTIN_SCENARIOS)})"
    )


def _apply_flags(scn: Scenario, args) -> Scenario:
    updates = {}
    if args.rule:
        updates["method"] = _method_for_rule(args.method, args.rule, scn.rule)
    elif args.method:
        updates["method"] = args.method
    if args.steps is not None:
        updates["n_steps"] = args.steps
    if args.h is not None:
        updates["h"], updates["h_expr"] = parse_step_size(args.h)
    if args.tol is not None:
        try:
            updates["solver"] = replace(scn.solver, tolerance=args.tol)
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from None
    return replace(scn, **updates) if updates else scn


def _check_out(key: str, path: str | None, directory: bool = False):
    """Refuse an existing output path of the wrong kind (a directory where
    a file goes, or the reverse) before any integration, so a long run is
    not lost at the write."""
    if path and Path(path).exists() and Path(path).is_dir() != directory:
        want = "a directory" if directory else "a file path"
        raise ConfigError(f"{key}: {path!r} exists and is not {want}")


def _cmd_run(args) -> int:
    scn, _ = _load_scenario(args.scenario)
    scn = _apply_flags(scn, args)
    if args.out:
        _check_out("out", args.out)
    else:
        _check_out("output", scn.output)
    summary = run_scenario(scn, out=args.out, relative_errors=args.relative_errors)
    sys.stdout.write(summary.as_text())
    sys.stdout.write(f"series written to {summary.series_path}\n")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    scn, doc = _load_scenario(args.scenario)
    scn = _apply_flags(scn, args)
    _check_out("out", args.out)
    study = doc.get("study", {})
    if not isinstance(study, dict):
        raise ConfigError(f"study: expected an object, got {study!r}")
    unknown = set(study) - {"h_list", "reference_h"}
    if unknown:
        raise ConfigError(f"study: unknown key(s) {sorted(unknown)}")
    if "h_list" in study:
        h_list = study["h_list"]
        if not isinstance(h_list, list) or not h_list:
            raise ConfigError(
                f"study: h_list: expected a nonempty list, got {h_list!r}")
        hs = [parse_step_size(h, "study: h_list")[0] for h in h_list]
    else:
        hs = [scn.h / 2**k for k in range(4)]
    if "reference_h" in study:
        href = parse_step_size(study["reference_h"], "study: reference_h")[0]
    else:
        href = min(hs, key=abs) / 16
    try:
        result = convergence_study(scn, hs, href)
    except ValueError as exc:
        raise ConfigError(f"study: {exc}") from None
    sys.stdout.write(result.as_text())
    if args.out:  # like run, create the missing parent directories
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(result.as_text())
    return EXIT_OK


def _cmd_compare(args) -> int:
    scn, doc = _load_scenario(args.scenario)
    scn = _apply_flags(scn, args)
    _check_out("out", args.out, directory=True)
    methods = doc.get("methods", ["bdli", "boris"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError(f"methods: expected a list of method names, got {methods!r}")
    try:
        report = compare_methods(
            scn, methods, out_dir=args.out, relative_errors=args.relative_errors
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sys.stdout.write(report.as_text())
    return EXIT_OK


def _cmd_list_builtins(_args) -> int:
    for name in BUILTIN_SCENARIOS:
        scn = builtin_scenario(name)
        print(
            f"{name:<10} field={scn.field_name:<18} h={scn.h_expr} "
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

    p_cmp = sub.add_parser("compare", help="run several methods side by side")
    _add_common_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

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
