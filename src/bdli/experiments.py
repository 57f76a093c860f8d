"""Scenario definitions, config parsing, runs and study drivers.

A :class:`Scenario` pins down everything needed to reproduce a run: the
field model, particle parameters, initial state, step size, step count,
method, the scenario's own quadrature rule if any, and solver options.
A config may give a step size as an expression such as ``"pi/10"``; it is
expanded to a float at load time, and a float round-trips exactly.

Built-in scenarios, each itself a config document (``_BUILTIN_DOCS``):

    drift2d   gyration plus slow drift in the cylindrical_drift field
    banana    trapped (bouncing) orbit in the tokamak field
    transit   passing orbit in the tokamak field (doubled toroidal kick)

A config document with ``"builtin": <name>`` lays its keys over that
document.  The parser only maps keys to :class:`Scenario` fields, and
``Scenario`` checks every value, so a scenario read from a config and one
built directly pass the same checks.

Output: a comma-separated series file (one row per recorded state) plus a
key-value summary file; both are deterministic for identical scenarios.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from sys import maxsize

from .diagnostics import QUANTITIES, quantity_series, series_errors
from .fields import (FieldSingularityError, PotentialUnavailableError, as_vec3,
                     make_field)
from .hamiltonian import ChargedParticleSystem, PhaseState
from .integrators import (
    IntegrationError,
    SolverOptions,
    Trajectory,
    integrate,
    resolve_method,
)
from .quadrature import BUILTIN_RULES, QuadratureRule

SERIES_COLUMNS = (
    "t,x,y,z,vx,vy,vz,H,p_xi,mu,err_H,err_p_xi,err_mu,iters"
)
_BANANA = {
    "name": "banana", "h": "pi/10", "n_steps": 50_000,
    "field": {"name": "tokamak",
              "params": {"B0": 1.0, "R0": 1.0, "safety_factor": 2.0}},
    "x0": [1.05, 0.0, 0.0], "v0": [0.0, 4.816e-4, 2.059e-3],
}
_BUILTIN_DOCS = {
    "drift2d": {
        "name": "drift2d", "h": "pi/10", "n_steps": 50_000,
        "field": {"name": "cylindrical_drift", "params": {"epsilon": 1e-2}},
        "x0": [0.0, 0.1, 0.0], "v0": [0.1, 0.01, 0.0],
    },
    "banana": _BANANA,
    "transit": {**_BANANA, "name": "transit", "v0": [0.0, 2 * 4.816e-4, 2.059e-3]},
}
BUILTIN_SCENARIOS = tuple(_BUILTIN_DOCS)


class ConfigError(ValueError):
    """Invalid configuration; names the offending field where possible."""


_PI_EXPR = re.compile(
    r"(-?)(?:(\d+(?:\.\d*)?(?:e-?\d+)?)\*)?pi(?:/(\d+(?:\.\d*)?(?:e-?\d+)?))?"
)


def parse_step_size(value, key: str = "h") -> float:
    """Expand a step size that may be a number or an expression like "pi/10".
    Errors name the config entry ``key``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _coerce(key, float, value)
    if isinstance(value, str):
        s = value.strip().lower().replace(" ", "")
        m = _PI_EXPR.fullmatch(s)
        if m:
            sign = -1.0 if m.group(1) else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            if den == 0.0:
                raise ConfigError(f"{key}: division by zero in {value!r}")
            return sign * num * math.pi / den
        try:
            return float(s)
        except ValueError:
            pass
    raise ConfigError(
        f"{key}: expected a number or an expression like 'pi/10', got {value!r}"
    )


@dataclass(frozen=True)
class Scenario:
    """A fully pinned-down run.  ``method`` alone picks the stepper; ``rule``
    is the scenario's own palindromic quadrature rule, which runs when
    ``method`` is "dli:<its name>" and may not take a built-in rule's name."""

    name: str
    field_name: str
    field_params: dict = field(default_factory=dict)
    mass: float = 1.0
    charge: float = 1.0
    x0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    v0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    h: float = 0.1
    n_steps: int = 1
    method: str = "bdli"
    rule: QuadratureRule | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    output: str | None = None
    stride: int = 1

    def __post_init__(self):
        # every check of a value, from a config or not: a ConfigError names its key
        for key in ("mass", "charge", "h"):
            object.__setattr__(self, key, _coerce(key, float, getattr(self, key)))
        for key in ("n_steps", "stride"):
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        if self.n_steps < 1:
            raise ConfigError(f"n_steps: must be >= 1, got {self.n_steps}")
        if self.n_steps > maxsize:  # integrate allocates lists of n_steps items
            raise ConfigError(f"n_steps: must be <= sys.maxsize = {maxsize}")
        if self.h == 0.0 or not math.isfinite(self.h):
            raise ConfigError(f"h: must be finite and nonzero, got {self.h}")
        if not 0 < self.mass < math.inf:
            raise ConfigError(f"mass: must be positive and finite, got {self.mass}")
        if not math.isfinite(self.charge):
            raise ConfigError(f"charge: must be finite, got {self.charge}")
        if self.stride < 1:
            raise ConfigError(f"stride: must be >= 1, got {self.stride}")
        params = self.field_params
        if not isinstance(params, dict):
            raise ConfigError(f"field: params must be an object, got {params!r}")
        object.__setattr__(self, "field_params", dict(params))  # not the caller's
        for name, value in params.items():  # scalars; make_field checks the rest
            if (isinstance(value, (str, numbers.Real))
                    and not math.isfinite(_coerce(f"field: {name}", float, value))):
                raise ConfigError(f"field: {name}: must be finite, got {value!r}")
        try:  # unknown model names and bad parameters alike
            make_field(self.field_name, **params)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"field: {exc}") from None
        for key in ("x0", "v0"):
            try:
                object.__setattr__(self, key, as_vec3(getattr(self, key)))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        own = self.rule
        if own is not None and not isinstance(own, QuadratureRule):
            raise ConfigError(f"rule: expected a QuadratureRule, got {own!r}")
        if own is not None and own.name in BUILTIN_RULES:
            raise ConfigError(f"rule: cannot shadow built-in rule {own.name!r}")
        if own is not None and not own.palindromic:
            raise ConfigError(f"rule: {own.name!r} is not palindromic, so the "
                              "step would not be time-symmetric")
        if not isinstance(self.method, str):
            raise ConfigError(f"method: expected a string, got {self.method!r}")
        if not isinstance(self.solver, SolverOptions):
            raise ConfigError(f"solver: expected a SolverOptions, got {self.solver!r}")
        if not isinstance(self.output, (str, type(None))):
            raise ConfigError(f"output: expected a path string or None, "
                              f"got {self.output!r}")
        try:
            self.stepper  # validates the method text
        except ValueError as exc:
            raise ConfigError(f"method: {exc}") from None

    @property
    def stepper(self) -> str | QuadratureRule:
        """The method as :func:`integrate` takes it: the text, or the own rule
        when the method names it (``integrate`` knows only built-in rules)."""
        step = resolve_method(self.method, self.rule)
        return step if step is self.rule else self.method

    @property
    def total_time(self) -> float:
        return self.h * self.n_steps

    def system(self) -> ChargedParticleSystem:
        return ChargedParticleSystem(
            self.mass, self.charge, make_field(self.field_name, **self.field_params)
        )

    def initial_state(self) -> PhaseState:
        return PhaseState(self.x0, self.v0)

    def run_trajectory(self) -> Trajectory:
        return integrate(self.system(), self.stepper, self.initial_state(),
                         self.h, self.n_steps, self.solver)


def builtin_scenario(name: str) -> Scenario:
    """One of the reference scenarios: drift2d, banana or transit."""
    return _scenario_from_dict({"builtin": name}, "builtin")


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "name", "field", "mass", "charge", "x0", "v0", "h", "n_steps",
    "method", "rule", "solver", "output", "stride",
}
_RESERVED_KEYS = {"builtin", "study", "methods"}
_SOLVER_KEYS = {"tolerance", "max_iterations"}


def _coerce(key: str, kind, value):
    """``kind(value)`` for a config entry, as a ConfigError naming the key;
    a boolean or a string is not a number."""
    what = "an integer" if kind is int else "a number"
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{key}: expected {what}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {what}, got {value!r}") from None


def _count(key: str, value) -> int:
    """An integer config entry: integral floats such as JSON ``1e4`` pass;
    booleans, strings and fractions such as 1.5 are refused."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return _coerce(key, int, value)


def _method_for_rule(method: str | None, name: str,
                     own: QuadratureRule | None = None) -> str:
    """The method a ``rule`` key or ``--rule`` flag sets: "dli:<name>" on its
    own; next to a method, that method if it names the same rule.  The rule
    must be a built-in one or ``own``, the scenario's own rule."""
    try:
        resolve_method(f"dli:{name}", own)
    except ValueError as exc:
        raise ConfigError(f"rule: {exc}") from None
    if method is None:
        return f"dli:{name}"
    if method != f"dli:{name}" and (method, name) != ("bdli", "boole"):
        raise ConfigError(f"rule: {name!r} contradicts method {method!r}")
    return method


def _inline_rule(spec: dict) -> QuadratureRule:
    """A config's own rule from ``{name, pairs, degree}``."""
    extra = set(spec) - {"name", "pairs", "degree"}
    if extra:
        raise ConfigError(f"rule: unknown key(s) {sorted(extra)}")
    name = spec.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"rule: name must be a string, got {name!r}")
    degree = _count("rule: degree", spec.get("degree", 0))
    try:  # a ConfigError is a ValueError too: "rule: pairs: expected a number"
        nodes, weights = zip(*((_coerce("pairs", float, c), _coerce("pairs", float, w))
                               for c, w in spec["pairs"]))
        return QuadratureRule(name, nodes, weights, degree)
    except KeyError as exc:
        raise ConfigError(f"rule: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"rule: {exc}") from None


def _scenario_from_dict(doc: dict, source: str) -> Scenario:
    """The scenario of a config document, which ``"builtin": <name>`` lays
    over that builtin's document.  Only maps keys: Scenario checks values."""
    unknown = set(doc) - _SCENARIO_KEYS - _RESERVED_KEYS
    if unknown:
        raise ConfigError(
            f"{source}: unknown key(s) {', '.join(sorted(unknown))!s}"
        )
    if "builtin" in doc:
        if doc["builtin"] not in BUILTIN_SCENARIOS:  # a tuple: [1] is no TypeError
            raise ConfigError(
                f"builtin: unknown builtin scenario {doc['builtin']!r} "
                f"(known: {', '.join(BUILTIN_SCENARIOS)})")
        doc = {**_BUILTIN_DOCS[doc["builtin"]], **doc}
    for key in ("name", "field", "x0", "v0", "h", "n_steps"):
        if key not in doc:
            raise ConfigError(f"{key}: required unless 'builtin' is given")

    fspec = doc["field"]
    if isinstance(fspec, str):
        fspec = {"name": fspec}
    elif not isinstance(fspec, dict):
        raise ConfigError("field: expected a name or {name, params}")
    extra = set(fspec) - {"name", "params"}
    if extra:
        raise ConfigError(f"field: unknown key(s) {sorted(extra)}")
    updates = {"name": str(doc["name"]), "field_name": fspec.get("name"),
               "field_params": fspec.get("params", {})}
    for key in ("mass", "charge", "x0", "v0", "n_steps", "stride"):
        if key in doc:
            updates[key] = doc[key]
    updates["h"] = parse_step_size(doc["h"])
    if "method" in doc:
        updates["method"] = str(doc["method"])
    if doc.get("rule") is not None:
        rspec = doc["rule"]
        if isinstance(rspec, dict):
            updates["rule"] = _inline_rule(rspec)
            name = updates["rule"].name
        else:
            name = str(rspec)
        updates["method"] = _method_for_rule(
            updates.get("method"), name, updates.get("rule"))
    if "solver" in doc:
        sspec = doc["solver"]
        if not isinstance(sspec, dict):
            raise ConfigError("solver: expected an object")
        extra = set(sspec) - _SOLVER_KEYS
        if extra:
            raise ConfigError(f"solver: unknown key(s) {sorted(extra)}")
        sspec = dict(sspec)
        if "tolerance" in sspec:
            sspec["tolerance"] = _coerce("solver: tolerance", float, sspec["tolerance"])
        if "max_iterations" in sspec:
            sspec["max_iterations"] = _count(
                "solver: max_iterations", sspec["max_iterations"]
            )
        try:
            updates["solver"] = SolverOptions(**sspec)
        except ValueError as exc:
            raise ConfigError(f"solver: {exc}") from None
    if "output" in doc:
        updates["output"] = str(doc["output"]) if doc["output"] else None
    return Scenario(**updates)


def _study_and_methods(doc: dict) -> tuple[list | None, float | None, list]:
    """A config document's ``study`` step sizes ``h_list`` and
    ``reference_h`` (None where not given) and its ``methods`` list.  Only
    their shapes are checked: convergence_study and compare_methods check
    them against the run."""
    study = doc.get("study", {})
    if not isinstance(study, dict):
        raise ConfigError(f"study: expected an object, got {study!r}")
    unknown = set(study) - {"h_list", "reference_h"}
    if unknown:
        raise ConfigError(f"study: unknown key(s) {sorted(unknown)}")
    hs = href = None
    if "h_list" in study:
        hs = study["h_list"]
        if not isinstance(hs, list) or not hs:
            raise ConfigError(
                f"study: h_list: expected a nonempty list, got {hs!r}")
        hs = [parse_step_size(h, "study: h_list") for h in hs]
    if "reference_h" in study:
        href = parse_step_size(study["reference_h"], "study: reference_h")
    methods = doc.get("methods", ["bdli", "boris"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError(f"methods: expected a list of method names, got {methods!r}")
    return hs, href, methods


def _load_document(path) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def load_config(path) -> Scenario:
    """Parse and validate a JSON scenario config."""
    doc = _load_document(path)
    return _scenario_from_dict(doc, str(path))


def scenario_to_config(scn: Scenario) -> dict:
    """Serializable dict that :func:`load_config` maps back to ``scn``.

    The scenario's own rule is written inline when its method runs it; a
    rule the method does not run cannot be written next to that method.
    """
    cfg = {
        "name": scn.name,
        "field": {"name": scn.field_name, "params": dict(scn.field_params)},
        "mass": scn.mass,
        "charge": scn.charge,
        "x0": list(scn.x0),
        "v0": list(scn.v0),
        "h": scn.h,
        "n_steps": scn.n_steps,
        "method": scn.method,
        "solver": {
            "tolerance": scn.solver.tolerance,
            "max_iterations": scn.solver.max_iterations,
        },
        "output": scn.output,
        "stride": scn.stride,
    }
    own = scn.stepper
    if isinstance(own, QuadratureRule):
        cfg["rule"] = {
            "name": own.name,
            "pairs": [list(p) for p in zip(own.nodes, own.weights)],
            "degree": own.degree_of_exactness,
        }
    return cfg


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of one completed run."""

    scenario: str
    method: str
    max_abs_err_H: float
    max_abs_err_p_xi: float
    max_abs_err_mu: float
    final_abs_err_H: float
    final_abs_err_p_xi: float
    final_abs_err_mu: float
    mean_iters: float
    series_path: str | None = None

    def as_text(self) -> str:
        lines = [
            f"scenario = {self.scenario}",
            f"method = {self.method}",
            f"max_abs_err_H = {self.max_abs_err_H:.17g}",
            f"max_abs_err_p_xi = {self.max_abs_err_p_xi:.17g}",
            f"max_abs_err_mu = {self.max_abs_err_mu:.17g}",
            f"final_abs_err_H = {self.final_abs_err_H:.17g}",
            f"final_abs_err_p_xi = {self.final_abs_err_p_xi:.17g}",
            f"final_abs_err_mu = {self.final_abs_err_mu:.17g}",
            f"mean_iters = {self.mean_iters:.17g}",
        ]
        return "\n".join(lines) + "\n"


def _write_series(scn: Scenario, traj: Trajectory, series_path: Path,
                  relative_errors: bool) -> list[list[float]]:
    """Write the series file of ``traj``; returns the errors Q - Q0 of H,
    p_xi and mu, absolute whatever ``relative_errors`` is.  p_xi is NaN for
    a field without a vector potential, and mu is NaN at rows where B = 0."""
    sys = scn.system()
    values = []
    for q in QUANTITIES:
        try:
            values.append(quantity_series(sys, traj, q))
        except PotentialUnavailableError:  # only p_xi needs A
            values.append([math.nan] * len(traj))
    errors = [series_errors(v) for v in values]
    H, p, mu = values
    eH, ep, emu = (
        [series_errors(v, relative=True) for v in values] if relative_errors
        else errors)

    h, states, iters = traj.h, traj.states, [0, *traj.iterations]
    row = ",".join(["%.17g"] * 13) + ",%d\n"
    series_path.parent.mkdir(parents=True, exist_ok=True)
    # row by row, so no text copy of the whole series is held in memory
    with series_path.open("w") as f:
        f.write(SERIES_COLUMNS + "\n")
        for i in range(0, len(traj), scn.stride):
            f.write(row % (h * i, *states[i], H[i], p[i], mu[i],
                           eH[i], ep[i], emu[i], iters[i]))
    return errors


def _max_or_nan(values) -> float:
    """max(values), but NaN if any value is NaN: the builtin max keeps a
    NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def run_scenario(scn: Scenario, relative_errors: bool = False) -> RunSummary:
    """Integrate a scenario, write its series and summary files.

    The series goes to ``scn.output``, by default ``<name>_series.csv`` in
    the current directory, and the summary next to it with the suffix
    ``.summary.txt``.  The run is deterministic: identical scenarios produce
    byte-identical series and summary files.  When the integration fails,
    the series of the states reached so far is written to the same path
    (recorded as the error's ``series_path``) before the error propagates.
    """
    series_path = Path(scn.output or f"{scn.name}_series.csv")
    try:
        traj = scn.run_trajectory()
    except IntegrationError as exc:
        # keep the states reached before the failure, in the same format
        try:
            _write_series(scn, exc.trajectory, series_path, relative_errors)
        except FieldSingularityError:
            pass  # a diagnostic is undefined at a reached state: no series
        else:
            exc.series_path = str(series_path)
        raise
    errors = _write_series(scn, traj, series_path, relative_errors)

    # over the emitted rows, so "final" is the file's last row
    aH, ap, amu = ([abs(e) for e in err[::scn.stride]] for err in errors)
    iters = traj.iterations
    summary = RunSummary(
        scenario=scn.name,
        method=scn.method,
        max_abs_err_H=_max_or_nan(aH),
        max_abs_err_p_xi=_max_or_nan(ap),
        max_abs_err_mu=_max_or_nan(amu),
        final_abs_err_H=aH[-1],
        final_abs_err_p_xi=ap[-1],
        final_abs_err_mu=amu[-1],
        mean_iters=sum(iters) / len(iters) if iters else 0.0,
        series_path=str(series_path),
    )
    summary_path = series_path.with_suffix(".summary.txt")
    summary_path.write_text(summary.as_text())
    return summary


@dataclass(frozen=True)
class ConvergenceStudy:
    """Global-error ladder of one method against its own fine-step run."""

    method: str
    reference_h: float
    rows: tuple[tuple[float, float], ...]  # (h, endpoint error)
    slope: float

    def as_text(self) -> str:
        lines = [f"method = {self.method}", f"reference_h = {self.reference_h:.17g}"]
        lines += [f"{h:.17g} {e:.17g}" for h, e in self.rows]
        lines.append(f"slope = {self.slope:.6f}")
        return "\n".join(lines) + "\n"


def _loglog_slope(rows) -> float:
    """Least-squares slope of log(error) against log|h| over ``(h, error)``
    rows; NaN where it is undefined (an error of 0, or a single step size)."""
    if not all(e > 0.0 for _, e in rows):
        return math.nan
    xs = [math.log(abs(h)) for h, _ in rows]
    ys = [math.log(e) for _, e in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx if sxx > 0.0 else math.nan


def convergence_study(
    scn: Scenario, h_list, reference_h: float
) -> ConvergenceStudy:
    """Self-convergence of the scenario's method over its total time.

    Every h (and the reference) must divide the scenario's total time to
    within round-off; the reference step must be the finest.  The reported
    slope is the least-squares fit of log(error) against log(h).  Errors
    start with the argument they refer to, ``h_list`` or ``reference_h``,
    or name the total time.  Every rung's scenario is built, and so
    checked, before the first one runs.
    """
    T = scn.total_time
    if not math.isfinite(T):
        raise ValueError(f"total time h * n_steps = {scn.h!r} * {scn.n_steps} "
                         "is not finite")
    hs = [float(h) for h in h_list]
    if not hs:
        raise ValueError("h_list: must be nonempty")
    if not all(h and math.isfinite(h) for h in hs):
        raise ValueError(f"h_list: steps must be finite and nonzero, got {hs}")
    if not 0.0 < abs(reference_h) < min(abs(h) for h in hs):
        raise ValueError(
            f"reference_h: {reference_h!r} must be nonzero and finer than "
            "every h in h_list")
    rungs = []
    for key, h in [*(("h_list", h) for h in hs), ("reference_h", reference_h)]:
        n = round(T / h) if math.isfinite(T / h) else 0  # 0 is refused next
        if n < 1 or abs(n * h - T) > 1e-9 * abs(T):
            raise ValueError(
                f"{key}: step {h!r} does not divide the total time {T!r}")
        try:
            rungs.append(replace(scn, h=h, n_steps=n))
        except ConfigError as exc:
            raise ValueError(f"{key}: step {h!r}: {exc}") from None
    *coarse, fine = rungs
    ref = fine.run_trajectory().states[-1]
    rows = tuple((h, math.dist(r.run_trajectory().states[-1], ref))
                 for h, r in zip(hs, coarse))
    return ConvergenceStudy(scn.method, reference_h, rows, _loglog_slope(rows))


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side run summaries of several methods on one scenario."""

    scenario: str
    summaries: tuple[RunSummary, ...]

    def as_text(self) -> str:
        header = (
            f"{'method':<14} {'max|err H|':>13} {'max|err p_xi|':>14} "
            f"{'max|err mu|':>13} {'mean_iters':>11}"
        )
        lines = [f"scenario = {self.scenario}", header]
        for s in self.summaries:
            lines.append(
                f"{s.method:<14} {s.max_abs_err_H:>13.6g} "
                f"{s.max_abs_err_p_xi:>14.6g} {s.max_abs_err_mu:>13.6g} "
                f"{s.mean_iters:>11.2f}"
            )
        return "\n".join(lines) + "\n"


def compare_methods(
    scn: Scenario, methods, out_dir=None, relative_errors: bool = False
) -> ComparisonReport:
    """Run several methods on one scenario and collect their summaries.

    Each method writes its own series file (method name mangled into the
    file name); a combined table file is written next to them.  Every
    method's scenario is built, and so checked, before the first one runs;
    errors start with ``methods``.
    """
    methods = list(methods)
    if len(methods) < 2:
        raise ValueError(f"methods: need at least two methods, got {methods}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:  # each method's series file is named after it
        raise ValueError(f"methods: {', '.join(map(repr, repeated))} repeated")
    base = Path(out_dir) if out_dir else Path(".")
    runs = []
    for method in methods:
        fname = f"{scn.name}_{str(method).replace(':', '-')}_series.csv"
        try:
            runs.append(replace(scn, method=method, output=str(base / fname)))
        except ConfigError as exc:
            raise ValueError(f"methods: {exc}") from None
    base.mkdir(parents=True, exist_ok=True)
    summaries = tuple(run_scenario(sub, relative_errors=relative_errors)
                      for sub in runs)
    report = ComparisonReport(scn.name, summaries)
    (base / f"{scn.name}_compare.txt").write_text(report.as_text())
    return report
