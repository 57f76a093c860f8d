"""Scenario definitions, config parsing, runs and study drivers.

A :class:`Scenario` pins down everything needed to reproduce a run: the
field model, particle parameters, initial state, step size, step count,
method, the scenario's own quadrature rule if any, and solver options.
``method`` alone picks the stepper: ``Scenario`` reads its text once, into
``Scenario.stepper``, and a run passes that stepper to ``integrate``.
A step size may be given as text such as ``"pi/10"``; ``Scenario`` expands
it to the float it holds, and a float round-trips exactly.

Built-in scenarios, each itself a config document (``_BUILTIN_DOCS``):

    drift2d   gyration plus slow drift in the cylindrical_drift field
    banana    trapped (bouncing) orbit in the tokamak field
    transit   passing orbit in the tokamak field (doubled toroidal kick)

A config document with ``"builtin": <name>`` lays its keys over that
document.  The parser only maps keys to :class:`Scenario` fields, and
``Scenario`` checks every value, so a scenario read from a config and one
built directly pass the same checks.  :func:`load_run` alone turns a
config or builtin name and the command-line flags into a ``Scenario``.

Output: a comma-separated series file (one row per recorded state) plus a
key-value summary file; both are deterministic for identical scenarios.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
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


@contextmanager
def _named(key: str):
    """The one place where a caught error becomes a config error naming its
    key: a bad value (ValueError, TypeError, OverflowError) as "<key>: <error>",
    a failed file operation (OSError) as "<key>: <strerror>"."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{key}: {exc.strerror}") from None


_PI_EXPR = re.compile(
    r"(-?)(?:(\d+(?:\.\d*)?(?:e-?\d+)?)\*)?pi(?:/(\d+(?:\.\d*)?(?:e-?\d+)?))?"
)


def parse_step_size(value, key: str = "h") -> float:
    """Expand a step size that may be a number or text such as "0.1" or
    "pi/10".  Errors name the config entry ``key``."""
    if not isinstance(value, str):
        return _coerce(key, float, value)
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
        raise ConfigError(f"{key}: expected a number or an expression like "
                          f"'pi/10', got {value!r}") from None


@dataclass(frozen=True)
class Scenario:
    """A fully pinned-down run.  ``method`` alone picks the stepper, which
    ``stepper`` holds (see :func:`resolve_method`); ``rule`` is the
    scenario's own palindromic quadrature rule, which runs when ``method`` is
    "dli:<its name>" and may not take a built-in rule's name.  ``h`` may be
    given as text such as "pi/10" and is held as a float; ``name``, the stem
    of the default series path, has no path separator and no NUL."""

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
    stepper: QuadratureRule | Callable = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        # every check of a value, from a config or not: a ConfigError names its key
        for key in ("mass", "charge"):
            object.__setattr__(self, key, _coerce(key, float, getattr(self, key)))
        object.__setattr__(self, "h", parse_step_size(self.h))
        for key in ("n_steps", "stride"):
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        if self.n_steps < 1:
            raise ConfigError(f"n_steps: must be >= 1, got {self.n_steps}")
        if self.n_steps > maxsize:  # the record's n_steps + 1 rows fit a list
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
        with _named("field"):  # unknown model names and bad parameters alike
            make_field(self.field_name, **params)
        for key in ("x0", "v0"):
            with _named(key):
                object.__setattr__(self, key, as_vec3(getattr(self, key)))
        own = self.rule
        if own is not None and not isinstance(own, QuadratureRule):
            raise ConfigError(f"rule: expected a QuadratureRule, got {own!r}")
        if own is not None and own.name in BUILTIN_RULES:
            raise ConfigError(f"rule: cannot shadow built-in rule {own.name!r}")
        if own is not None and not own.palindromic:
            raise ConfigError(f"rule: {own.name!r} is not palindromic, so the "
                              "step would not be time-symmetric")
        if not isinstance(self.name, str) or any(c in self.name for c in "/\\\0"):
            raise ConfigError(f"name: expected a string without '/', '\\' or NUL, "
                              f"got {self.name!r}")
        if not isinstance(self.method, str):
            raise ConfigError(f"method: expected a string, got {self.method!r}")
        if not isinstance(self.solver, SolverOptions):
            raise ConfigError(f"solver: expected a SolverOptions, got {self.solver!r}")
        if not isinstance(self.output, (str, type(None))):
            raise ConfigError(f"output: expected a path string or None, "
                              f"got {self.output!r}")
        with _named("method"):  # the one reading of the method text
            object.__setattr__(self, "stepper", resolve_method(self.method, own))

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


def _inline_rule(spec) -> QuadratureRule:
    """A config's own rule from ``{name, pairs, degree}``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"rule: expected an object {{name, pairs, degree}}, "
                          f"got {spec!r}")
    extra = set(spec) - {"name", "pairs", "degree"}
    if extra:
        raise ConfigError(f"rule: unknown key(s) {sorted(extra)}")
    name = spec.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"rule: name must be a string, got {name!r}")
    degree = _count("rule: degree", spec.get("degree", 0))
    if "pairs" not in spec:
        raise ConfigError("rule: missing key 'pairs'")
    with _named("rule"):  # a ConfigError is a ValueError too: "rule: pairs: ..."
        nodes, weights = zip(*((_coerce("pairs", float, c), _coerce("pairs", float, w))
                               for c, w in spec["pairs"]))
        return QuadratureRule(name, nodes, weights, degree)


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
    updates = {"field_name": fspec.get("name"), "field_params": fspec.get("params", {})}
    for key in ("name", "mass", "charge", "x0", "v0", "h", "n_steps", "method",
                "stride", "output"):
        if key in doc:
            updates[key] = doc[key]
    if doc.get("rule") is not None:  # the definition of the scenario's own rule
        updates["rule"] = _inline_rule(doc["rule"])
        if "method" not in doc:  # which runs unless the document names a method
            updates["method"] = f"dli:{updates['rule'].name}"
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
        with _named("solver"):
            updates["solver"] = SolverOptions(**sspec)
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
    with _named(path):  # unreadable, or not UTF-8
        text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    except RecursionError as exc:  # nested too deep
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def load_config(path) -> Scenario:
    """Parse and validate a JSON scenario config."""
    return _scenario_from_dict(_load_document(path), str(path))


def load_run(source, *, method=None, n_steps=None, h=None, tolerance=None,
             output=None) -> tuple:
    """``(scenario, h_list, reference_h, methods)`` of a config file or
    builtin name ``source`` (see ``_study_and_methods``).  The document's
    own scenario is checked first; then the flags of the ``bdli`` command
    apply in one ``replace`` as the keys they stand for (``tolerance`` is
    the solver's).  An empty ``method`` or ``output`` is unset."""
    with _named(source):  # a name the OS refuses, too long say
        is_file = Path(source).is_file()
    if is_file:
        doc = _load_document(source)
    elif source in BUILTIN_SCENARIOS:
        doc = {"builtin": source}
    else:
        raise ConfigError(f"{source!r} is neither a config file nor a builtin "
                          f"scenario (builtins: {', '.join(BUILTIN_SCENARIOS)})")
    scn = _scenario_from_dict(doc, str(source))
    study = _study_and_methods(doc)
    updates = {}
    if method:
        updates["method"] = method
    if n_steps is not None:
        updates["n_steps"] = n_steps
    if h is not None:
        updates["h"] = h
    if tolerance is not None:
        with _named("solver"):
            updates["solver"] = replace(scn.solver, tolerance=tolerance)
    if output:
        updates["output"] = output
    return (replace(scn, **updates) if updates else scn, *study)


def scenario_to_config(scn: Scenario) -> dict:
    """Serializable dict that :func:`load_config` maps back to ``scn``.

    The scenario's own rule, if it has one, is written inline next to the
    method, whether or not the method runs it.
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
    own = scn.rule
    if own is not None:
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
        keys = [f.name for f in fields(self)][2:-1]  # the numbers, in field order
        lines = [f"scenario = {self.scenario}", f"method = {self.method}",
                 *(f"{k} = {getattr(self, k):.17g}" for k in keys)]
        return "\n".join(lines) + "\n"


def _output_path(key: str, path) -> Path:
    """``path`` as a file to write, its missing parent directories created;
    a ConfigError naming ``key`` if it holds a NUL character, the OS refuses
    to look it up (a name too long, say), it is a directory or its parent
    cannot be created.  Runs and studies call it before integrating;
    a write that fails later (a full disk) names ``key`` too (``_write_text``)."""
    path = Path(path)
    if "\0" in str(path):
        raise ConfigError(f"{key}: {str(path)!r} holds a NUL character")
    with _named(f"{key}: cannot use {str(path)!r}"):
        is_dir = path.is_dir()
    if is_dir:
        raise ConfigError(f"{key}: {str(path)!r} is a directory, not a file path")
    with _named(f"{key}: cannot create directory {str(path.parent)!r}"):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(key: str, path: Path, text: str):
    """Write ``text`` to ``path``, a failed write a ConfigError naming ``key``."""
    with _named(f"{key}: cannot write {str(path)!r}"):
        path.write_text(text)


def _run_paths(scn: Scenario, key: str) -> tuple[Path, Path]:
    """The series path of a run of ``scn`` and its summary's, checked."""
    series_path = _output_path(key, scn.output or f"{scn.name}_series.csv")
    return series_path, _output_path(key, series_path.with_suffix(".summary.txt"))


def _write_series(scn: Scenario, traj: Trajectory, series_path: Path,
                  relative_errors: bool, key: str) -> list[list[float]]:
    """Write the series file of ``traj``, a failed write a ConfigError
    naming ``key``; returns the errors Q - Q0 of H, p_xi and mu, absolute
    whatever ``relative_errors`` is.  p_xi is NaN for a field without a
    vector potential, and mu is NaN at rows where B = 0."""
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
    # row by row, so no text copy of the whole series is held in memory
    with _named(f"{key}: cannot write {str(series_path)!r}"), \
            series_path.open("w") as f:
        f.write(SERIES_COLUMNS + "\n")
        for i in range(0, len(traj), scn.stride):
            f.write(row % (h * i, *states[i], H[i], p[i], mu[i],
                           eH[i], ep[i], emu[i], iters[i]))
    return errors


def _max_or_nan(values) -> float:
    """max(values), but NaN if any value is NaN: the builtin max keeps a
    NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def run_scenario(scn: Scenario, relative_errors: bool = False,
                 key: str = "output") -> RunSummary:
    """Integrate a scenario, write its series and summary files.

    The series goes to ``scn.output``, by default ``<name>_series.csv`` in
    the current directory, and the summary next to it with the suffix
    ``.summary.txt``; both are checked before the integration, and a bad
    path or a failed write is a ConfigError naming ``key`` (the setting the
    caller took the path from) and the path.  Identical
    scenarios produce byte-identical series and summary files.  When the
    integration fails, the series of the states reached so far is written
    to the same path (recorded as the error's ``series_path``) before the
    error propagates; if that write fails, no ``series_path`` is recorded.
    """
    series_path, summary_path = _run_paths(scn, key)
    try:
        traj = scn.run_trajectory()
    except IntegrationError as exc:
        # keep the states reached before the failure, in the same format;
        # none if a diagnostic is undefined at a reached state or the write fails
        with suppress(FieldSingularityError, ConfigError):
            _write_series(scn, exc.trajectory, series_path, relative_errors, key)
            exc.series_path = str(series_path)
        raise
    errors = _write_series(scn, traj, series_path, relative_errors, key)

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
    _write_text(key, summary_path, summary.as_text())
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
    scn: Scenario, h_list=None, reference_h: float | None = None
) -> ConvergenceStudy:
    """Self-convergence of the scenario's method over its total time.

    ``h_list`` defaults to h, h/2, h/4, h/8 of the scenario's h, and
    ``reference_h`` to the finest step over 16.  Every h (and the reference)
    must divide the total time to within round-off; the reference step must
    be the finest.  The slope is the least-squares fit of log(error) against
    log(h).  A ConfigError starts with ``study:`` and names ``h_list``,
    ``reference_h``, ``h`` (the default ladder's) or the total time.  Every
    rung's scenario is built, and so checked, before the first one runs.
    """
    T = scn.total_time
    if not math.isfinite(T):
        raise ConfigError(f"study: total time h * n_steps = {scn.h!r} * "
                          f"{scn.n_steps} is not finite")
    hs_key, hs = (("study: h", [scn.h / 2**k for k in range(4)]) if h_list is None
                  else ("study: h_list", [float(h) for h in h_list]))
    if not hs:
        raise ConfigError(f"{hs_key}: must be nonempty")
    if not all(h and math.isfinite(h) for h in hs):
        raise ConfigError(f"{hs_key}: steps must be finite and nonzero, got {hs}")
    if reference_h is None:
        reference_h = min(hs, key=abs) / 16
    if not 0.0 < abs(reference_h) < min(abs(h) for h in hs):
        raise ConfigError(f"study: reference_h: {reference_h!r} must be nonzero "
                          "and finer than every step of the ladder")
    rungs = []
    for key, h in [*((hs_key, h) for h in hs), ("study: reference_h", reference_h)]:
        n = round(T / h) if math.isfinite(T / h) else 0  # 0 is refused next
        if n < 1 or abs(n * h - T) > 1e-9 * abs(T):
            raise ConfigError(
                f"{key}: step {h!r} does not divide the total time {T!r}")
        with _named(f"{key}: step {h!r}"):
            rungs.append(replace(scn, h=h, n_steps=n))
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
    file name) to ``out_dir``; a combined table file is written next to
    them.  Every method's scenario and every output path is checked before
    the first run: a ConfigError starts with ``methods`` or ``out_dir``.
    """
    methods = list(methods)
    if len(methods) < 2:
        raise ConfigError(f"methods: need at least two methods, got {methods}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:  # each method's series file is named after it
        raise ConfigError(f"methods: {', '.join(map(repr, repeated))} repeated")
    base = Path(out_dir) if out_dir else Path(".")
    runs = []
    for method in methods:
        fname = f"{scn.name}_{str(method).replace(':', '-')}_series.csv"
        with _named("methods"):
            runs.append(replace(scn, method=method, output=str(base / fname)))
    for sub in runs:
        _run_paths(sub, "out_dir")
    table_path = _output_path("out_dir", base / f"{scn.name}_compare.txt")
    summaries = tuple(run_scenario(sub, relative_errors, "out_dir")
                      for sub in runs)
    report = ComparisonReport(scn.name, summaries)
    _write_text("out_dir", table_path, report.as_text())
    return report
