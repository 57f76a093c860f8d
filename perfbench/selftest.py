"""Self-test of the benchmark itself, at tiny step counts.

    python3 perfbench/selftest.py

Run from the root of a bdli checkout.  It checks that

* the seeded configs are reproducible, seed 0 loads to the builtin
  scenario and writes the builtin's series byte for byte, and other seeds
  stay within the stated perturbation;
* every workload passes its output checks, and a wrong output (truncated
  series, inflated energy error, wrong iteration mean, non-finite or
  non-converging ladder, nonzero exit) raises the fail rate;
* the tracer restores every name it rebinds, reports a missing target as
  absent, and its exact counts repeat between calls;
* the speed sampler times the reference while it runs and stops on exit;
* the metric names and units printed match ``BENCHMARK.json``.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import run
from tracing import EXACT_COUNTS, Tracer
from workloads import BUILTIN_STARTS, PERTURBATION, WORKLOADS

TINY = {"banana_run": 200, "drift2d_convergence": 20, "banana_reference": 200}
FAILURES = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def rewrite(path: Path, pattern: str, repl: str):
    path.write_text(re.sub(pattern, repl, path.read_text(), count=1, flags=re.M))


def truncate(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def first(out: Path, pattern: str) -> Path:
    return sorted(out.glob(pattern))[0]


# Each corruption damages one invocation's outputs the way a defect would.
CORRUPTIONS = {
    "banana_run": {
        "truncated series": lambda out: truncate(out / "series.csv"),
        "inflated energy error": lambda out: rewrite(
            out / "series.summary.txt", r"^max_abs_err_H = .*$",
            "max_abs_err_H = 1e-9"),
        "wrong mean_iters": lambda out: rewrite(
            out / "series.summary.txt", r"^mean_iters = .*$", "mean_iters = 12.5"),
    },
    "banana_reference": {
        "truncated boris series": lambda out: truncate(
            first(out, "*_boris_series.csv")),
        "inflated boris energy error": lambda out: rewrite(
            first(out, "*_boris_series.summary.txt"), r"^max_abs_err_H = .*$",
            "max_abs_err_H = 1e-9"),
        "non-finite rk4 error": lambda out: rewrite(
            first(out, "*_rk4_series.summary.txt"), r"^max_abs_err_mu = .*$",
            "max_abs_err_mu = nan"),
    },
    "drift2d_convergence": {
        "finest rung not smallest": lambda out: rewrite(
            out / "convergence.txt", r"^(\S+) \S+\n(slope)", r"\1 1e3\n\2"),
        "non-finite ladder error": lambda out: rewrite(
            out / "convergence.txt", r"^(0\.3\S*) \S+$", r"\1 inf"),
        "missing rung": lambda out: rewrite(
            out / "convergence.txt", r"^0\.3\S* \S+\n", ""),
    },
}


def check_configs(setup, bdli):
    for w in WORKLOADS.values():
        a, b = w.config(7), w.config(7)
        expect(a == b, f"{w.name}: same seed gives the same config")
        expect(w.config(7) != w.config(8), f"{w.name}: seeds differ")
        path = w.write_config(0, setup.work / f"{w.name}-seed0.json")
        base = bdli.builtin_scenario(w.scenario)
        expect(bdli.load_config(str(path)) == replace(base, n_steps=w.n_steps),
               f"{w.name}: seed 0 loads to the builtin {w.scenario}")
        x0, v0 = BUILTIN_STARTS[w.scenario]
        ok = True
        for seed in range(1, 51):
            x, v = w.config(seed)["x0"], w.config(seed)["v0"]
            for c, c0 in zip(x + v, x0 + v0):
                ok &= (c == 0.0 if c0 == 0.0
                       else abs(c / c0 - 1.0) <= PERTURBATION)
        expect(ok, f"{w.name}: seeds 1-50 scale x0/v0 by at most {PERTURBATION:g}")

    # seed 0 writes the builtin's series byte for byte
    w = replace(WORKLOADS["banana_run"], n_steps=TINY["banana_run"])
    cfg = w.write_config(0, setup.work / "tiny-seed0.json")
    outs = []
    for i, scenario in enumerate((str(cfg), w.scenario)):
        out = run.fresh_dir(setup, 100 + i)
        rc, _, _ = run.call_main(bdli.cli.main, ["run", scenario, "--steps",
                                 str(w.n_steps), "--out", str(out / "s.csv")], out)
        outs.append((rc, (out / "s.csv").read_bytes() if rc == 0 else b""))
    expect(outs[0][0] == 0 and outs[0] == outs[1],
           "seed-0 banana config writes the builtin's series byte for byte")


def check_workloads(setup):
    for name, steps in TINY.items():
        w = replace(WORKLOADS[name], n_steps=steps)
        cfg = w.write_config(1, setup.work / f"{name}.json")
        out = run.fresh_dir(setup, 0)
        argv = [sys.executable, "-m", "bdli.cli", *w.cli_args(cfg, out)]
        rc, _, _, _, _ = run.run_child(argv, out, setup.env, 120)
        clean = run.Tally()
        expect(clean.record(w, rc, out) and clean.failed == 0,
               f"{name}: tiny run passes its output checks")
        pristine = setup.work / "pristine"
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(out, pristine)
        for what, corrupt in CORRUPTIONS[name].items():
            shutil.rmtree(out)
            shutil.copytree(pristine, out)
            corrupt(out)
            tally = run.Tally()
            tally.record(w, 0, pristine)
            tally.record(w, 0, out)
            expect(tally.failed == 1 and tally.attempted == 2,
                   f"{name}: {what} raises fail_rate to "
                   f"{tally.failed}/{tally.attempted}")
        tally = run.Tally()
        tally.record(w, 3, pristine, "solver failure")
        expect(tally.failed == 1, f"{name}: nonzero exit counts as failed")


def check_tracer(setup, bdli):
    import bdli.integrators as integrators

    w = replace(WORKLOADS["banana_run"], n_steps=50)
    cfg = w.write_config(2, setup.work / "trace.json")

    def hooked():
        return (integrators.dli_step, bdli.cli.run_scenario,
                bdli.hamiltonian.PhaseState.__post_init__,
                bdli.fields.TokamakField.b_at, bdli.hamiltonian.as_vec3)

    before = hooked()
    counts = []
    for _ in range(2):
        out = run.fresh_dir(setup, 200)
        tracer = Tracer()
        tracer.install()
        try:
            rc, _, _ = run.call_main(bdli.cli.main, w.cli_args(cfg, out), out)
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        counts.append({k: m[k] for k in EXACT_COUNTS})
    expect(rc == 0 and m["integrators.steps"] == 50, "traced call counts 50 steps")
    expect(all(a is b for a, b in zip(before, hooked())),
           "uninstall restores every rebound name")
    expect(counts[0] == counts[1], "exact counts repeat between traced calls")
    expect(m["fields.b_at_calls"] > 0 and m["hamiltonian.phase_states"] > 0
           and m["experiments.series_bytes"] > 0, "traced counts are nonzero")

    saved = integrators.rk4_step
    del integrators.rk4_step
    try:
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        integrators.rk4_step = saved
    expect(tracer.absent == ["bdli.integrators.rk4_step"],
           f"a missing hook target is reported absent: {tracer.absent}")


def check_sampler():
    with run.SpeedSampler() as speed:
        time.sleep(10 * run.SAMPLE_INTERVAL_S)
        n = len(speed.samples)
        mean = speed.mean_since(0)
    expect(n >= 3 and mean > 0, f"speed sampler timed {n} references, mean {mean:.3g} s")
    expect(not speed._thread.is_alive(), "speed sampler thread stops on exit")
    try:
        speed.mean_since(len(speed.samples))
    except RuntimeError:
        empty = True
    else:
        empty = False
    expect(empty, "a call without speed samples is an error")


def check_metric_names():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} matches run.py")
    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "bdli" / "cli.py").is_file():
        print("selftest: run from the root of a bdli checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bdli
    import bdli.cli

    setup = run.Setup(root)
    try:
        check_configs(setup, bdli)
        check_workloads(setup)
        check_tracer(setup, bdli)
        check_sampler()
        check_metric_names()
    finally:
        shutil.rmtree(setup.work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
