"""Workload definitions: seeded inputs, CLI arguments and output checks.

Each workload is one ``bdli`` command run on a JSON config that the
benchmark writes from its seed.  Seed 0 gives the builtin scenario's
start state exactly; any other seed scales every component of ``x0`` and
``v0`` by a factor within 1e-3 of one, small enough to keep the orbit
class (trapped banana, near-axis drift).

The checks decide whether one invocation counts as failed.  Everything
else they read (error numbers, digests) is returned as information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Start states of the builtin scenarios (``bdli.builtin_scenario``).  They
# are repeated here so that the program receives only generated inputs;
# ``selftest.py`` checks that seed 0 still loads to the builtin.
BUILTIN_STARTS = {
    "banana": ((1.05, 0.0, 0.0), (0.0, 4.816e-4, 2.059e-3)),
    "drift2d": ((0.0, 0.1, 0.0), (0.1, 0.01, 0.0)),
}
PERTURBATION = 1e-3

# acceptance criterion 1: energy is conserved to this bound when E = 0
ENERGY_BOUND = 1e-12

# the CLI's default convergence ladder is h, h/2, h/4, h/8 against h/128,
# so one study takes this many steps per configured step
LADDER_STEPS = 1 + 2 + 4 + 8 + 128


def perturbed_start(scenario: str, seed: int):
    """(x0, v0) of ``scenario`` scaled component-wise from ``seed``."""
    x0, v0 = BUILTIN_STARTS[scenario]
    if seed == 0:
        return list(x0), list(v0)
    rng = random.Random(seed)
    scale = [1.0 + rng.uniform(-PERTURBATION, PERTURBATION) for _ in range(6)]
    return (
        [c * f for c, f in zip(x0, scale[:3])],
        [c * f for c, f in zip(v0, scale[3:])],
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_summary(path: Path) -> dict:
    """``key = value`` lines of a run summary file."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def series_rows(path: Path) -> list[str]:
    """Data rows of a series file (header dropped)."""
    return path.read_text().splitlines()[1:]


@dataclass(frozen=True)
class Workload:
    """One CLI invocation on a generated config."""

    name: str
    scenario: str  # builtin the config starts from
    command: str  # bdli subcommand
    n_steps: int
    why: str
    methods: tuple[str, ...] = ()

    def config(self, seed: int) -> dict:
        x0, v0 = perturbed_start(self.scenario, seed)
        doc = {"builtin": self.scenario, "x0": x0, "v0": v0,
               "n_steps": self.n_steps}
        if self.methods:
            doc["methods"] = list(self.methods)
        return doc

    def write_config(self, seed: int, path: Path) -> Path:
        path.write_text(json.dumps(self.config(seed), indent=1) + "\n")
        return path

    def cli_args(self, config: Path, out_dir: Path) -> list[str]:
        """Arguments after ``bdli``; every output lands in ``out_dir``."""
        if self.command == "run":
            return ["run", str(config), "--out", str(out_dir / "series.csv")]
        if self.command == "convergence":
            return ["convergence", str(config), "--out",
                    str(out_dir / "convergence.txt")]
        return ["compare", str(config), "--out", str(out_dir)]

    @property
    def steps(self) -> int:
        """Integrator steps one invocation completes."""
        if self.command == "run":
            return self.n_steps
        if self.command == "convergence":
            return self.n_steps * LADDER_STEPS
        return self.n_steps * len(self.methods)

    def check(self, out_dir: Path) -> tuple[list[str], dict]:
        """(problems, information) for one invocation's outputs."""
        try:
            return _CHECKS[self.command](self, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def _check_run(w: Workload, out: Path):
    series = out / "series.csv"
    summary = parse_summary(series.with_suffix(".summary.txt"))
    rows = series_rows(series)
    problems = []
    err_h = float(summary["max_abs_err_H"])
    if not err_h <= ENERGY_BOUND:
        problems.append(f"max_abs_err_H {err_h:.3g} > {ENERGY_BOUND:g}")
    if len(rows) != w.n_steps + 1:
        problems.append(f"series has {len(rows)} rows, want {w.n_steps + 1}")
    # the first row is the initial state; mean_iters averages over steps
    iters = [int(r.rsplit(",", 1)[1]) for r in rows[1:]]
    mean_iters = float(summary["mean_iters"])
    if not iters or sum(iters) / len(iters) != mean_iters:
        problems.append(f"mean_iters {mean_iters!r} disagrees with the iters column")
    info = {
        "series_sha256": sha256(series),
        "max_abs_err_H": err_h,
        "max_abs_err_p_xi": float(summary["max_abs_err_p_xi"]),
        "max_abs_err_mu": float(summary["max_abs_err_mu"]),
        "mean_iters": mean_iters,
    }
    return problems, info


def _check_compare(w: Workload, out: Path):
    problems, info = [], {}
    for method in w.methods:
        found = sorted(out.glob(f"*_{method.replace(':', '-')}_series.csv"))
        if len(found) != 1:
            problems.append(f"{method}: expected one series file, found {len(found)}")
            continue
        series = found[0]
        summary = parse_summary(series.with_suffix(".summary.txt"))
        errs = {q: float(summary[f"max_abs_err_{q}"]) for q in ("H", "p_xi", "mu")}
        if not all(math.isfinite(e) for e in errs.values()):
            problems.append(f"{method}: non-finite error {errs}")
        if method == "boris" and not errs["H"] <= ENERGY_BOUND:
            problems.append(f"boris max_abs_err_H {errs['H']:.3g} > {ENERGY_BOUND:g}")
        rows = len(series_rows(series))
        if rows != w.n_steps + 1:
            problems.append(f"{method}: series has {rows} rows, want {w.n_steps + 1}")
        info[method] = {"series_sha256": sha256(series),
                        **{f"max_abs_err_{q}": e for q, e in errs.items()}}
    return problems, info


def _check_convergence(w: Workload, out: Path):
    table = out / "convergence.txt"
    rows = []
    for line in table.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and "=" not in line:
            rows.append((float(parts[0]), float(parts[1])))
    problems = []
    if len(rows) != 4:
        problems.append(f"ladder has {len(rows)} rungs, want 4")
    errs = [e for _, e in rows]
    if not all(math.isfinite(e) for e in errs):
        problems.append(f"non-finite ladder error {errs}")
    elif rows and min(rows)[1] != min(errs):
        problems.append(f"finest rung error {min(rows)[1]:.3g} is not the smallest")
    info = {"table_sha256": sha256(table), "errors": errs}
    return problems, info


_CHECKS = {"run": _check_run, "compare": _check_compare,
           "convergence": _check_convergence}

# Sizes give one invocation about 2 s on a 2-core x86 sandbox, so that a
# measured run holds several invocations and reports their median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "banana_run", "banana", "run", 10_000,
            "bdli run on the E=0 tokamak orbit: DLI iteration (b_at only), "
            "diagnostics and series output; the command users run",
        ),
        Workload(
            "drift2d_convergence", "drift2d", "convergence", 200,
            "bdli convergence on the E!=0 drift field: Boole quadrature of e_at "
            "dominates, 143 steps per config step, no diagnostics or series",
        ),
        Workload(
            "banana_reference", "banana", "compare", 10_000,
            "bdli compare with boris and rk4 only: no DLI solver or quadrature, "
            "so solver work should show no change here",
            methods=("boris", "rk4"),
        ),
    )
}
