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
document.  Its scenario keys are the arguments of ``Scenario``, in the
same forms; each object it builds checks its own values once, with the
rules of :mod:`bdli.fields` (a ``ConfigError`` names the key), so a config
and a direct call with the same settings give equal scenarios.
:func:`load_run` alone turns a config or builtin name and the command-line
flags into a ``Scenario``.

Output: a comma-separated series file (one row per recorded state) plus a
key-value summary file; both are deterministic for identical scenarios.
Each driver checks its own output paths before the first integration and
writes its own files: ``run_scenario`` the series and summary at
``Scenario.output``, ``convergence_study`` its table at ``out`` and
``compare_methods`` every file in ``out_dir``.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Mapping
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, fields, replace
from dataclasses import field as dc_field
from pathlib import Path
from sys import maxsize
from types import MappingProxyType

from .fields import (ConfigError, FieldSingularityError, as_count, as_real,
                     as_vec3, make_field)
from .hamiltonian import QUANTITIES, ChargedParticleSystem, PhaseState, quantity_series
from .integrators import (
    IntegrationError,
    SolverOptions,
    Trajectory,
    integrate,
    resolve_method,
)
from .quadrature import BUILTIN_RULES, QuadratureRule

SERIES_COLUMNS = "t,x,y,z,vx,vy,vz,H,p_xi,mu,iters"
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
    """The step size ``value``, a number (by ``as_real``) or text such as "0.1"
    or "pi/10", as a float: the one step-size rule.  A value that does not
    read, or reads as zero or not finite, is a ConfigError naming ``key``."""
    if not isinstance(value, str):
        h = as_real(key, value)
    elif m := _PI_EXPR.fullmatch(s := value.strip().lower().replace(" ", "")):
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ConfigError(f"{key}: division by zero in {value!r}")
        h = sign * num * math.pi / den
    else:
        try:
            h = float(s)
        except ValueError:
            raise ConfigError(f"{key}: expected a number or an expression like "
                              f"'pi/10', got {value!r}") from None
    if h == 0.0 or not math.isfinite(h):
        raise ConfigError(f"{key}: must be finite and nonzero, got {h!r}")
    return h


@dataclass(frozen=True)
class Scenario:
    """A fully pinned-down run.  Its arguments are a config document's
    scenario keys, in the same forms, each read once into the form it holds:
    ``field`` (a name or ``{name, params}``, held as the latter, read-only
    down to ``params``), ``rule`` (its own palindromic rule, not named as a
    built-in one: a ``QuadratureRule`` or ``{name, pairs, degree}``),
    ``solver`` (a ``SolverOptions`` or its object), ``h`` (text such as
    "pi/10" too).
    ``method`` alone picks the stepper that ``stepper`` holds; None is
    "dli:<rule name>" with a rule, else "bdli".  ``name``, the stem of the
    default series path, has no path separator and no NUL."""

    name: str
    field: str | Mapping
    mass: float = 1.0
    charge: float = 1.0
    x0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    v0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    h: float = 0.1
    n_steps: int = 1
    method: str | None = None
    rule: QuadratureRule | dict | None = None
    solver: SolverOptions | dict = dc_field(default_factory=dict)
    output: str | None = None
    stride: int = 1
    stepper: QuadratureRule | Callable = dc_field(init=False, repr=False, compare=False)
    particle: ChargedParticleSystem = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a ConfigError names its key; the objects built here check their own
        object.__setattr__(self, "h", parse_step_size(self.h))
        for key in ("n_steps", "stride"):
            object.__setattr__(self, key, as_count(key, getattr(self, key)))
        if self.n_steps < 1:
            raise ConfigError(f"n_steps: must be >= 1, got {self.n_steps}")
        if self.n_steps > maxsize:  # the record's n_steps + 1 rows fit a list
            raise ConfigError(f"n_steps: must be <= sys.maxsize = {maxsize}")
        if self.stride < 1:
            raise ConfigError(f"stride: must be >= 1, got {self.stride}")
        spec = self.field  # a string is the field's name
        spec = _object("field", {"name": spec} if isinstance(spec, str) else spec,
                       {"name", "params"})
        params = spec.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigError(f"field: params must be an object, got {params!r}")
        with _named("field"):  # unknown model names and bad parameters alike
            fld = make_field(spec.get("name"), **params)
        p = ChargedParticleSystem(self.mass, self.charge, fld)  # the floats it holds
        spec = {"name": spec["name"], "params": MappingProxyType(dict(params))}
        for key, value in (("field", MappingProxyType(spec)),
                           ("particle", p), ("mass", p.mass), ("charge", p.charge)):
            object.__setattr__(self, key, value)
        for key in ("x0", "v0"):
            object.__setattr__(self, key, as_vec3(key, getattr(self, key)))
        own = self.rule
        if own is not None and not isinstance(own, QuadratureRule):
            object.__setattr__(self, "rule", own := _inline_rule(own))
        if own is not None and own.name in BUILTIN_RULES:
            raise ConfigError(f"rule: cannot shadow built-in rule {own.name!r}")
        if own is not None and not own.palindromic:
            raise ConfigError(f"rule: {own.name!r} is not palindromic, so the "
                              "step would not be time-symmetric")
        if not isinstance(self.name, str) or any(c in self.name for c in "/\\\0"):
            raise ConfigError(f"name: expected a string without '/', '\\' or NUL, "
                              f"got {self.name!r}")
        if self.method is None:  # the scenario's own rule runs unless named
            object.__setattr__(self, "method", f"dli:{own.name}" if own else "bdli")
        if not isinstance(self.method, str):
            raise ConfigError(f"method: expected a string, got {self.method!r}")
        if not isinstance(self.solver, SolverOptions):
            spec = _object("solver", self.solver, _SOLVER_KEYS)
            with _named("solver"):
                object.__setattr__(self, "solver", SolverOptions(**spec))
        if not isinstance(self.output, (str, type(None))):
            raise ConfigError(f"output: expected a path string or None, "
                              f"got {self.output!r}")
        with _named("method"):  # the one reading of the method text
            object.__setattr__(self, "stepper", resolve_method(self.method, own))

    def __reduce__(self):
        # a read-only field does not pickle; the scenario's document does
        return _scenario_from_dict, (scenario_to_config(self), "scenario")

    @property
    def total_time(self) -> float:
        return self.h * self.n_steps

    def system(self) -> ChargedParticleSystem:
        """The particle in its field, built once when the scenario is."""
        return self.particle

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

_SCENARIO_KEYS = {f.name for f in fields(Scenario) if f.init}
_RESERVED_KEYS = {"builtin", "study", "methods"}
_SOLVER_KEYS = {f.name for f in fields(SolverOptions)}


def _object(key: str, value, keys) -> Mapping:
    """``value`` if it is an object (a Mapping) whose keys are all in ``keys``;
    otherwise a ConfigError naming ``key``: the one shape check of the
    document and of its ``field``, ``solver``, ``rule`` and ``study``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key}: expected an object, got {value!r}")
    unknown = set(value) - keys
    if unknown:
        raise ConfigError(f"{key}: unknown key(s) {', '.join(sorted(unknown))}")
    return value


def _inline_rule(spec) -> QuadratureRule:
    """A scenario's own rule from its document form ``{name, pairs, degree}``."""
    spec = _object("rule", spec, {"name", "pairs", "degree"})
    if "pairs" not in spec:
        raise ConfigError("rule: missing key 'pairs'")
    with _named("rule"):  # a ConfigError is a ValueError too: "rule: nodes: ..."
        nodes, weights = zip(*spec["pairs"], strict=True)  # each pair (c, w)
        return QuadratureRule(spec.get("name"), nodes, weights, spec.get("degree", 0))


def _scenario_from_dict(doc: dict, source: str) -> Scenario:
    """The scenario of a config document, which ``"builtin": <name>`` lays
    over that builtin's document: its scenario keys are the arguments of
    ``Scenario``, which reads and checks their values."""
    _object(source, doc, _SCENARIO_KEYS | _RESERVED_KEYS)
    if "builtin" in doc:
        if doc["builtin"] not in BUILTIN_SCENARIOS:  # a tuple: [1] is no TypeError
            raise ConfigError(
                f"builtin: unknown builtin scenario {doc['builtin']!r} "
                f"(known: {', '.join(BUILTIN_SCENARIOS)})")
        doc = {**_BUILTIN_DOCS[doc["builtin"]], **doc}
    for key in ("name", "field", "x0", "v0", "h", "n_steps"):
        if key not in doc:
            raise ConfigError(f"{key}: required unless 'builtin' is given")
    return Scenario(**{k: v for k, v in doc.items() if k in _SCENARIO_KEYS})


def _study_and_methods(doc: dict) -> tuple[list | None, float | None, list]:
    """A config document's ``study`` step sizes ``h_list`` and
    ``reference_h`` (None where not given) and its ``methods`` list.  Only
    their shapes are checked: convergence_study and compare_methods read
    and check their values."""
    study = _object("study", doc.get("study", {}), {"h_list", "reference_h"})
    hs, href = study.get("h_list"), study.get("reference_h")
    if "h_list" in study and (not isinstance(hs, list) or not hs):
        raise ConfigError(f"study: h_list: expected a nonempty list, got {hs!r}")
    if "reference_h" in study and href is None:  # null is no step, not the default
        raise ConfigError("study: reference_h: expected a number, got None")
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
    except (ValueError, RecursionError) as exc:  # an int too long, nested too deep
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def load_config(path) -> Scenario:
    """Parse and validate a JSON scenario config."""
    return _scenario_from_dict(_load_document(path), str(path))


def _flag_value(value):
    """A number flag's text read as the JSON value its key would hold in a
    config (``"1e2"`` is 100.0); anything else, ``null`` included (an unset
    flag is None), stays as it is."""
    with suppress(TypeError, ValueError, RecursionError):  # not JSON text
        if (read := json.loads(value)) is not None:
            return read
    return value


def load_run(source, *, method=None, n_steps=None, h=None, tolerance=None,
             output=None) -> tuple:
    """``(scenario, h_list, reference_h, methods)`` of a config file or
    builtin name ``source`` (see ``_study_and_methods``).  The document's
    own scenario is checked first; then the flags of the ``bdli`` command
    apply in one ``replace`` as the keys they stand for (``tolerance`` is
    the solver's), ``n_steps`` and ``tolerance`` given as text read by
    ``_flag_value``.  An empty ``method`` or ``output`` is unset."""
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
    updates = {"method": method or None, "n_steps": _flag_value(n_steps), "h": h,
               "output": output or None}
    if tolerance is not None:
        updates["solver"] = {**asdict(scn.solver), "tolerance": _flag_value(tolerance)}
    updates = {key: value for key, value in updates.items() if value is not None}
    return (replace(scn, **updates) if updates else scn, *study)


def scenario_to_config(scn: Scenario) -> dict:
    """The config document of ``scn``'s held values, which
    :func:`load_config` and ``Scenario(**doc)`` map back to ``scn``.

    The scenario's own rule, if it has one, is written inline next to the
    method, whether or not the method runs it.
    """
    own = scn.rule
    return {**{f.name: getattr(scn, f.name) for f in fields(scn) if f.init},
            "field": {**scn.field, "params": dict(scn.field["params"])},
            "x0": list(scn.x0), "v0": list(scn.v0), "solver": asdict(scn.solver),
            "rule": None if own is None else {
                "name": own.name, "degree": own.degree_of_exactness,
                "pairs": [list(p) for p in zip(own.nodes, own.weights)]}}


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
                  key: str) -> list[list[float]]:
    """Write every ``scn.stride``-th state of ``traj`` from the first to the
    series file, a failed write a ConfigError naming ``key``; returns H,
    p_xi and mu at the rows written."""
    sys, h, stride = scn.system(), traj.h, scn.stride
    rows, iters = traj.states[::stride], [0, *traj.iterations][::stride]
    values = [quantity_series(sys, rows, q) for q in QUANTITIES]
    row = ",".join(["%.17g"] * 10) + ",%d\n"
    # row by row, so no text copy of the whole series is held in memory
    with _named(f"{key}: cannot write {str(series_path)!r}"), \
            series_path.open("w") as f:
        f.write(SERIES_COLUMNS + "\n")
        for i, z, H, p, mu, n in zip(range(0, len(traj), stride), rows, *values, iters):
            f.write(row % (h * i, *z, H, p, mu, n))
    return values


def _max_or_nan(values) -> float:
    """max(values), but NaN if any value is NaN: the builtin max keeps a
    NaN only when it comes first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def run_scenario(scn: Scenario, key: str = "output") -> RunSummary:
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
            _write_series(scn, exc.trajectory, series_path, key)
            exc.series_path = str(series_path)
        raise
    # |Q - Q0| over the written rows, so "final" is the file's last row
    aH, ap, amu = ([abs(q - v[0]) for q in v]
                   for v in _write_series(scn, traj, series_path, key))
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

    @property
    def slope(self) -> float:
        """Least-squares slope of log(error) against log|h| over the rows;
        NaN where it is undefined (an error of 0, or a single step size)."""
        if not all(e > 0.0 for _, e in self.rows):
            return math.nan
        xs = [math.log(abs(h)) for h, _ in self.rows]
        ys = [math.log(e) for _, e in self.rows]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        return sxy / sxx if sxx > 0.0 else math.nan

    @property
    def orders(self) -> tuple[float, ...]:
        """Observed order log(e_i / e_(i+1)) / log(h_i / h_(i+1)) of each
        adjacent pair of rungs; NaN where it is undefined (an error of 0)."""
        return tuple(
            math.log(e0 / e1) / math.log(h0 / h1)
            if e0 > 0.0 and e1 > 0.0 and h0 != h1 else math.nan
            for (h0, e0), (h1, e1) in zip(self.rows, self.rows[1:]))

    def as_text(self) -> str:
        lines = [f"method = {self.method}", f"reference_h = {self.reference_h:.17g}"]
        lines += [f"{h:.17g} {e:.17g}" for h, e in self.rows]
        lines.append(f"slope = {self.slope:.6f}")
        lines += [f"order {h0:.17g} {h1:.17g} = {p:.6f}" for (h0, _), (h1, _), p
                  in zip(self.rows, self.rows[1:], self.orders)]
        return "\n".join(lines) + "\n"


def convergence_study(
    scn: Scenario, h_list=None, reference_h: float | None = None, out=None
) -> ConvergenceStudy:
    """Self-convergence of the scenario's method over its total time.

    ``h_list`` defaults to h, h/2, h/4, h/8 of the scenario's h, and
    ``reference_h`` to the finest step over 16.  Every h and the reference,
    given or default, is read by :func:`parse_step_size` (finite and
    nonzero), must divide the total time to within round-off, and the
    reference must be the finest.  The slope is the least-squares fit of
    log(error) against log(h).  A ConfigError starts with ``study:`` and
    names ``h_list``, ``reference_h``, ``h`` (the default ladder's) or the
    total time.  Every rung's scenario is built, and so checked, before the
    first one runs, and so is the path ``out`` (if given), to which the
    study's table is written; a bad or unwritable ``out`` is a ConfigError
    starting with ``out:``.
    """
    T = scn.total_time
    if not math.isfinite(T):
        raise ConfigError(f"study: total time h * n_steps = {scn.h!r} * "
                          f"{scn.n_steps} is not finite")
    hs_key, hs = (("study: h", [scn.h / 2**k for k in range(4)]) if h_list is None
                  else ("study: h_list", h_list))
    hs = [parse_step_size(h, hs_key) for h in hs]
    if not hs:
        raise ConfigError(f"{hs_key}: must be nonempty")
    reference_h = parse_step_size(min(hs, key=abs) / 16 if reference_h is None
                                  else reference_h, "study: reference_h")
    if not abs(reference_h) < min(abs(h) for h in hs):
        raise ConfigError(f"study: reference_h: {reference_h!r} must be finer "
                          "than every step of the ladder")
    rungs = []
    for key, h in [*((hs_key, h) for h in hs), ("study: reference_h", reference_h)]:
        n = round(T / h) if math.isfinite(T / h) else 0  # 0 is refused next
        if n < 1 or abs(n * h - T) > 1e-9 * abs(T):
            raise ConfigError(
                f"{key}: step {h!r} does not divide the total time {T!r}")
        with _named(f"{key}: step {h!r}"):
            rungs.append(replace(scn, h=h, n_steps=n))
    table_path = _output_path("out", out) if out else None
    *coarse, fine = rungs
    ref = fine.run_trajectory().states[-1]
    rows = tuple((h, math.dist(r.run_trajectory().states[-1], ref))
                 for h, r in zip(hs, coarse))
    study = ConvergenceStudy(scn.method, reference_h, rows)
    if table_path:
        _write_text("out", table_path, study.as_text())
    return study


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


def compare_methods(scn: Scenario, methods, out_dir=None) -> ComparisonReport:
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
    summaries = tuple(run_scenario(sub, "out_dir") for sub in runs)
    report = ComparisonReport(scn.name, summaries)
    _write_text("out_dir", table_path, report.as_text())
    return report
