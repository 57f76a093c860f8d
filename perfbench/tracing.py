"""In-process tracing of one ``bdli.cli.main`` call.

The tracer rebinds public names of the bdli modules with timing or
counting wrappers and restores them afterwards; no file of the program is
changed.  Spans nest through a stack: a span's self time is its duration
minus the durations of the spans opened directly inside it.  Spans and
counts stay in memory and are summarised after the call.

A target that no longer exists (say, after a refactor renamed it) is
recorded in ``absent`` and its layer's metrics read 0.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from pathlib import Path
from time import perf_counter

FIELD_METHODS = ("b_at", "e_at", "a_at", "phi_at")
# metrics that must repeat exactly between calls on the same input
EXACT_COUNTS = (
    "integrators.steps", "integrators.iters_mean", "integrators.iters_p99",
    *(f"fields.{m}_calls" for m in FIELD_METHODS),
    "hamiltonian.phase_states", "linalg.as_vec3_calls",
    "experiments.series_bytes",
)


class SpanStats:
    """Aggregate of one span name; ``durations`` only when kept."""

    __slots__ = ("count", "total", "self_total", "durations")

    def __init__(self, keep: bool):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = [] if keep else None

    def as_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total,
                "self_s": self.self_total}


def nearest_rank(sorted_values, p: float):
    """The p-th percentile (0 < p <= 100) by the nearest-rank rule."""
    if not sorted_values:
        return 0
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.residual_max = 0.0
        self.step_field_calls = 0
        self.trajectories = []
        self.diagnosed_states = 0
        self.series_paths = []
        # frames are [child_seconds, is_step_span]
        self._stack = []
        self._undo = []

    # --- wrappers -----------------------------------------------------
    def _span(self, name, fn, keep=False, is_step=False, on_call=None):
        stats = self.spans.setdefault(name, SpanStats(keep))
        stack = self._stack
        durations = stats.durations

        def wrapper(*args, **kwargs):
            frame = [0.0, is_step]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats.count += 1
                stats.total += dur
                stats.self_total += dur - frame[0]
                if durations is not None:
                    durations.append(dur)
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _field(self, name, fn):
        """Timed and counted field evaluation, noting calls made by steps."""
        stats = self.spans.setdefault("fields", SpanStats(False))
        counts = self.counts
        stack = self._stack
        key = f"fields.{name}_calls"

        def wrapper(*args):
            counts[key] += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - t0
                if stack:
                    parent = stack[-1]
                    parent[0] += dur
                    if parent[1]:
                        self.step_field_calls += 1
                stats.count += 1
                stats.total += dur
                stats.self_total += dur

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- observers ----------------------------------------------------
    def _on_dli_step(self, args, report):
        r = getattr(report, "residual_norm", None)
        if r is not None and r > self.residual_max:
            self.residual_max = r

    def _on_integrate(self, args, traj):
        self.trajectories.append(traj)

    def _on_quantity_series(self, args, values):
        if len(args) > 2 and args[2] == "H":  # one H series per diagnosed run
            self.diagnosed_states += len(values)

    def _on_run_scenario(self, args, summary):
        path = getattr(summary, "series_path", None)
        if path:
            self.series_paths.append(Path(path))

    # --- installation -------------------------------------------------
    def _patch(self, owner, attr, make, label):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def install(self):
        """Rebind every hooked name; call :meth:`uninstall` afterwards."""
        mods = {}
        for name in ("cli", "experiments", "integrators", "fields",
                     "hamiltonian"):
            try:
                mods[name] = importlib.import_module(f"bdli.{name}")
            except ImportError:
                mods[name] = None
                self.absent.append(f"bdli.{name}")

        def patch(mod, attr, make):
            if mods[mod] is not None:
                self._patch(mods[mod], attr, make, f"bdli.{mod}.{attr}")

        run_span = lambda f: self._span(  # noqa: E731
            "experiments.run_scenario", f, on_call=self._on_run_scenario)
        patch("cli", "run_scenario", run_span)
        # compare_methods calls the experiments module's own run_scenario
        patch("experiments", "run_scenario", run_span)
        for attr in ("convergence_study", "compare_methods"):
            patch("cli", attr, lambda f, s=f"cli.{attr}": self._span(s, f))
        patch("experiments", "integrate", lambda f: self._span(
            "experiments.integrate", f, on_call=self._on_integrate))
        patch("experiments", "quantity_series", lambda f: self._span(
            "diagnostics.quantity_series", f, on_call=self._on_quantity_series))
        patch("integrators", "dli_step", lambda f: self._span(
            "integrators.step", f, keep=True, is_step=True,
            on_call=self._on_dli_step))
        for attr in ("boris_step", "rk4_step"):
            patch("integrators", attr, lambda f: self._span(
                "integrators.step", f, keep=True, is_step=True))
        if mods["fields"] is not None:
            models = getattr(mods["fields"], "FIELD_MODELS", None)
            if models is None:
                self.absent.append("bdli.fields.FIELD_MODELS")
            for cls in (models or {}).values():
                for attr in FIELD_METHODS:
                    if attr in cls.__dict__:
                        self._patch(cls, attr, lambda f, a=attr: self._field(a, f),
                                    f"{cls.__name__}.{attr}")
        if mods["hamiltonian"] is not None:
            phase_state = getattr(mods["hamiltonian"], "PhaseState", None)
            if phase_state is None:
                self.absent.append("bdli.hamiltonian.PhaseState")
            else:
                self._patch(phase_state, "__post_init__", lambda f: self._counted(
                    "hamiltonian.phase_states", f), "PhaseState.__post_init__")
        for mod in ("hamiltonian", "fields"):
            patch(mod, "as_vec3", lambda f: self._counted(
                "linalg.as_vec3_calls", f))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- summary ------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer numbers of the traced call (see README.md)."""
        zero = SpanStats(True)
        step = self.spans.get("integrators.step", zero)
        durs = sorted(step.durations or [])
        steps = step.count
        iters = sorted(
            int(i) for t in self.trajectories
            for i in (t.iterations if any(t.iterations) else ())
        )
        diag = self.spans.get("diagnostics.quantity_series", zero)
        run = self.spans.get("experiments.run_scenario", zero)
        series_bytes = sum(p.stat().st_size for p in self.series_paths
                           if p.is_file())
        c = self.counts
        per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
        return {
            "integrators.steps": steps,
            "integrators.iters_mean": sum(iters) / len(iters) if iters else 0.0,
            "integrators.iters_p99": nearest_rank(iters, 99),
            "integrators.residual_max": self.residual_max,
            "integrators.step_us_p50": nearest_rank(durs, 50) * 1e6,
            "integrators.step_us_p99": nearest_rank(durs, 99) * 1e6,
            "integrators.self_s": step.self_total,
            **{f"fields.{m}_calls": c[f"fields.{m}_calls"] for m in FIELD_METHODS},
            "fields.calls_per_step": per_step(self.step_field_calls),
            "hamiltonian.phase_states": c["hamiltonian.phase_states"],
            "hamiltonian.phase_states_per_step": per_step(
                c["hamiltonian.phase_states"]),
            "linalg.as_vec3_calls": c["linalg.as_vec3_calls"],
            "diagnostics.s": diag.total,
            "diagnostics.us_per_state": (
                diag.total / self.diagnosed_states * 1e6
                if self.diagnosed_states else 0.0),
            "experiments.serialize_s": run.self_total,
            "experiments.series_bytes": series_bytes,
            "experiments.series_mb_per_s": (
                series_bytes / 1e6 / run.self_total if run.self_total else 0.0),
        }

    def summary(self) -> dict:
        """Spans and counts as written to the trace file."""
        return {
            "spans": {k: v.as_dict() for k, v in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
            "step_field_calls": self.step_field_calls,
            "absent": list(self.absent),
        }
