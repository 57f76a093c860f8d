"""bdli benchmark: run one workload through the CLI and print its metrics.

    python3 perfbench/run.py --workload banana_run --seed 1 --seconds 20 --trace 0

Run it from the root of a bdli checkout; it uses the package under
``src/`` and writes only below ``.bench_work/``.

With ``--trace 0`` each operation is ``python3 -m bdli.cli ...`` in a fresh
interpreter, preceded by a set-up probe (``probe.py``); operations repeat
until ``--seconds`` have passed and the end-to-end metrics are medians over
them.  The benchmark and its children run on one CPU, and the CLI's CPU
time is reported in units of a fixed reference computation timed on that
CPU during the call (``SpeedSampler``), because the speed of a shared
host's CPU swings by up to 2x within seconds.

With ``--trace 1`` the same CLI call runs in this process through
``bdli.cli.main``, alternately untraced and under the tracer of
``tracing.py``, and the per-layer metrics are medians over the traced calls.

Every operation's outputs are checked (see ``workloads.py``); a nonzero
exit or a failed check counts the operation as failed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it state the
seed, the fail rate, sample counts and the output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns, thread_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS, Tracer, nearest_rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "time_rel": "ref",
    "steps_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "integrators.steps": "count",
    "integrators.iters_mean": "iters",
    "integrators.iters_p99": "iters",
    "integrators.residual_max": "1",
    "integrators.step_us_p50": "us",
    "integrators.step_us_p99": "us",
    "integrators.self_s": "s",
    "fields.b_at_calls": "count",
    "fields.e_at_calls": "count",
    "fields.a_at_calls": "count",
    "fields.phi_at_calls": "count",
    "fields.calls_per_step": "1/step",
    "fields.b_at_ns": "ns",
    "fields.e_at_ns": "ns",
    "hamiltonian.phase_states": "count",
    "hamiltonian.phase_states_per_step": "1/step",
    "linalg.as_vec3_calls": "count",
    "diagnostics.s": "s",
    "diagnostics.us_per_state": "us",
    "experiments.serialize_s": "s",
    "experiments.series_bytes": "B",
    "experiments.series_mb_per_s": "MB/s",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
}
# one result must be printed within 180 s; no single call may use more
RUN_LIMIT_S = 170.0
IMPORT_PROBES = 5
# set-up probes before each operation; setup_s is the median of all of them
SETUP_PROBES = 3
MICROBENCH_POINTS = 2000
MICROBENCH_REPEATS = 15
# The speed sampler times REFERENCE_ROUNDS iterations of the reference
# computation (about 0.5 ms of CPU) every SAMPLE_INTERVAL_S seconds.
REFERENCE_ROUNDS = 150
SAMPLE_INTERVAL_S = 0.02


class Setup:
    """Checkout paths, the child environment and a scratch directory."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        base = root / ".bench_work"
        base.mkdir(exist_ok=True)
        self.base = base
        self.work = Path(tempfile.mkdtemp(dir=base))
        self.t0 = perf_counter()
        # One CPU for this process and every child: the speeds of the
        # vCPUs of a shared host drift independently, and the speed
        # sampler must run on the CPU that runs the CLI.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def remaining(self) -> float:
        return max(5.0, RUN_LIMIT_S - (perf_counter() - self.t0))


def reference() -> float:
    """CPU seconds of a fixed computation shaped like a bdli step.

    Python float arithmetic, small tuples, ``math`` calls and 3-vector
    numpy operations, as in the field and step code.  It never changes
    with the program, so its time measures the speed of the CPU.
    """
    import numpy as np

    c0 = thread_time()
    v = np.array([1.05, 0.0, 0.0])
    acc = 0.0
    for i in range(REFERENCE_ROUNDS):
        x, y, z = 1.0 + i * 1e-6, 0.5, 0.25
        r = math.sqrt(x * x + y * y)
        b = (0.0, 0.0, r)
        w = np.array(b) + v
        acc += float(np.dot(w, v)) + math.atan2(y, x) + b[2] / (r * r + z)
    if not math.isfinite(acc):
        raise RuntimeError("reference computation is not finite")
    return thread_time() - c0


class SpeedSampler:
    """Times ``reference()`` every SAMPLE_INTERVAL_S until it is stopped.

    The host's CPU speed changes by up to 2x within a second, so a
    reference timed before or after a call does not track it.  The
    sampler thread shares the CLI's CPU, preempts it briefly, and its
    samples taken during one call give that call's mean speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(reference())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_since(self, n0: int) -> float:
        """Mean CPU seconds of the samples taken since there were ``n0``."""
        xs = self.samples[n0:]
        if not xs:
            raise RuntimeError("no speed sample during a CLI call")
        return statistics.fmean(xs)


def run_child(argv, cwd: Path, env, timeout: float):
    """(exit code, wall seconds, CPU seconds, peak RSS in MB, stdout) of one process."""
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            (cwd / "stdout.txt").read_text())


def tail(samples) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} (n={n}"
    p = 100 * (n - 10) // n if n > 10 else 0
    if p > 50:
        text += f", p{p} {nearest_rank(xs, p):.6g}"
    return text + ")"


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.infos = set()

    def record(self, workload, rc: int, out_dir: Path, err: str = "") -> bool:
        self.attempted += 1
        problems, info = workload.check(out_dir) if rc == 0 else (
            [f"exit code {rc}: {err.strip()[-500:]}"], {})
        self.infos.add(json.dumps(info, sort_keys=True))
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"perfbench: operation failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return not problems

    def report(self, args):
        print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
              f"attempted={self.attempted} failed={self.failed} "
              f"fail_rate={self.failed / max(1, self.attempted):.6g}")
        for info in sorted(self.infos):
            print(f"outputs: {info}")
        if len(self.infos) > 1:
            print("warning: outputs differ between operations of one input")


def probe(setup: Setup, config: Path, out: Path):
    """(wall, import seconds) of one fresh-interpreter set-up."""
    rc, wall, _, _, stdout = run_child(
        [sys.executable, str(HERE / "probe.py"), str(config)],
        out, setup.env, setup.remaining())
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}: "
                           f"{(out / 'stderr.txt').read_text()[-500:]}")
    return wall, json.loads(stdout.strip().splitlines()[-1])["import_s"]


def fresh_dir(setup: Setup, i: int) -> Path:
    d = setup.work / f"op{i}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    return d


def measure_untraced(args, setup: Setup, workload, config: Path):
    tally = Tally()
    walls, cpus, rels, rss, setups = [], [], [], [], []
    probe(setup, config, fresh_dir(setup, 0))  # warm caches, compile bytecode
    with SpeedSampler() as speed:
        deadline = perf_counter() + args.seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            i += 1
            out = fresh_dir(setup, i)
            setups.extend(probe(setup, config, out)[0]
                          for _ in range(SETUP_PROBES))
            argv = [sys.executable, "-m", "bdli.cli",
                    *workload.cli_args(config, out)]
            n0 = len(speed.samples)
            rc, wall, cpu, mb, _ = run_child(argv, out, setup.env,
                                             setup.remaining())
            rels.append(cpu / speed.mean_since(n0))
            tally.record(workload, rc, out, (out / "stderr.txt").read_text())
            walls.append(wall)
            cpus.append(cpu)
            rss.append(mb)
            shutil.rmtree(out)
        print(f"speed samples: {len(speed.samples)}, reference "
              f"{tail(speed.samples)} s")
    tally.report(args)
    values = {
        "time_rel": rels,
        "steps_per_ref": [workload.steps / r for r in rels],
        "setup_s": setups,
        "peak_rss_mb": rss,
    }
    for name, xs in (*values.items(), ("wall_s", walls), ("cpu_s", cpus),
                     ("steps_per_s", [workload.steps / w for w in walls])):
        print(f"{name}: {tail(xs)}")
    return tally, {k: statistics.median(v) for k, v in values.items()}


def call_main(main, argv, out: Path):
    """(exit code, wall, error text) of ``bdli.cli.main(argv)`` in-process."""
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            rc, err = 1, traceback.format_exc()
        else:
            err = ""
        wall = perf_counter() - t0
    return rc, wall, err or (out / "stderr.txt").read_text()


def field_ns(fn, points) -> float:
    """Median nanoseconds per call of ``fn`` over ``points``."""
    samples = []
    for _ in range(MICROBENCH_REPEATS):
        t0 = perf_counter_ns()
        for x, y, z in points:
            fn(x, y, z)
        samples.append((perf_counter_ns() - t0) / len(points))
    return statistics.median(samples)


def measure_traced(args, setup: Setup, workload, config: Path):
    sys.path.insert(0, str(setup.src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import bdli
    import bdli.cli

    if not Path(bdli.__file__).resolve().is_relative_to(setup.src.resolve()):
        raise RuntimeError(f"bdli imported from {bdli.__file__}, not {setup.src}")

    imports = [probe(setup, config, fresh_dir(setup, 0))[1]
               for _ in range(IMPORT_PROBES)]
    tally = Tally()
    untraced, traced, layer = [], [], []
    tracer = None
    deadline = perf_counter() + args.seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        i += 1
        out = fresh_dir(setup, i)
        rc, wall, err = call_main(bdli.cli.main, workload.cli_args(config, out), out)
        tally.record(workload, rc, out, err)
        untraced.append(wall)
        out = fresh_dir(setup, i)
        tracer = Tracer()
        tracer.install()
        try:
            rc, wall, err = call_main(bdli.cli.main,
                                      workload.cli_args(config, out), out)
            layer.append(tracer.metrics())
        finally:
            tracer.uninstall()
        tally.record(workload, rc, out, err)
        traced.append(wall)
        shutil.rmtree(out)

    counts = [{k: m[k] for k in EXACT_COUNTS} for m in layer]
    # the lower median keeps exact counts whole numbers
    metrics = {k: statistics.median_low(m[k] for m in layer) for k in layer[0]}

    field = bdli.load_config(str(config)).system().field
    states = tracer.trajectories[-1].states if tracer.trajectories else []
    stride = max(1, len(states) // MICROBENCH_POINTS)
    points = [tuple(float(c) for c in s[:3]) for s in states[::stride]]
    for name in ("b_at", "e_at"):
        fn = getattr(field, name, None)
        metrics[f"fields.{name}_ns"] = field_ns(fn, points) if fn and points else 0.0
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)

    tally.report(args)
    print(f"traced calls: {len(traced)}; untraced {tail(untraced)} s; "
          f"traced {tail(traced)} s")
    print(f"step spans: {metrics['integrators.steps']} per call; microbench "
          f"{len(points)} positions x {MICROBENCH_REPEATS}")
    if tracer.absent:
        print(f"absent layers: {', '.join(tracer.absent)}")
    if any(c != counts[0] for c in counts):
        print("warning: counts differ between traced calls")
    trace_file = setup.base / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "metrics": metrics,
         **tracer.summary()}, indent=1) + "\n")
    print(f"trace written to {trace_file.relative_to(setup.root)}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bdli" / "cli.py").is_file():
        print("perfbench: run from the root of a bdli checkout "
              "(src/bdli/cli.py not found)", file=sys.stderr)
        return 2
    setup = Setup(root)
    try:
        workload = WORKLOADS[args.workload]
        config = workload.write_config(args.seed, setup.work / "config.json")
        measure = measure_traced if args.trace else measure_untraced
        tally, values = measure(args, setup, workload, config)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(setup.work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
