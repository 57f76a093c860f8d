import json
import math
from dataclasses import replace
from sys import maxsize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdli
from bdli import fields
from bdli import (
    ConfigError,
    Scenario,
    builtin_scenario,
    compare_methods,
    convergence_study,
    load_config,
    parse_step_size,
    run_scenario,
    scenario_to_config,
)
from bdli.experiments import _SCENARIO_KEYS, _loglog_slope, _scenario_from_dict


# --- builtins ---------------------------------------------------------------

def test_builtin_drift2d():
    s = builtin_scenario("drift2d")
    assert s.field_name == "cylindrical_drift"
    assert s.field_params == {"epsilon": 1e-2}
    assert s.mass == 1.0 and s.charge == 1.0
    assert s.x0 == (0.0, 0.1, 0.0)
    assert s.v0 == (0.1, 0.01, 0.0)
    assert s.h == pytest.approx(math.pi / 10, abs=0.0)
    assert s.n_steps == 50_000
    assert s.method == "bdli" and s.rule is None


def test_builtin_banana_and_transit():
    b = builtin_scenario("banana")
    assert b.field_name == "tokamak"
    assert b.x0 == (1.05, 0.0, 0.0)
    assert b.v0 == (0.0, 4.816e-4, 2.059e-3)
    t = builtin_scenario("transit")
    assert t.v0 == (0.0, 9.632e-4, 2.059e-3)
    assert t.x0 == b.x0 and t.h == b.h and t.n_steps == b.n_steps


def test_builtin_scenarios_do_not_share_params():
    # banana and transit are one document apart; each scenario owns its dict
    builtin_scenario("banana").field_params["B0"] = 5.0
    assert builtin_scenario("transit").field_params["B0"] == 1.0
    assert builtin_scenario("banana").field_params["B0"] == 1.0


def test_builtin_unknown():
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin_scenario("spiral")


# --- step-size expressions ----------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [
        ("pi/10", math.pi / 10),
        ("pi", math.pi),
        ("-pi/3", -math.pi / 3),
        ("2*pi/5", 2 * math.pi / 5),
        ("0.25", 0.25),
        (0.25, 0.25),
        (3, 3.0),
    ],
)
def test_parse_step_size(text, value):
    assert parse_step_size(text) == pytest.approx(value, abs=0.0)


@pytest.mark.parametrize("bad", ["pi/0x", "ten", "", "2**3", None, [1]])
def test_parse_step_size_rejects(bad):
    with pytest.raises(ConfigError):
        parse_step_size(bad)


# --- scenario validation ------------------------------------------------------

def test_scenario_invariants():
    with pytest.raises(ConfigError, match="n_steps"):
        replace(builtin_scenario("banana"), n_steps=0)
    # refused before integrate allocates its lists of n_steps items
    for n in (maxsize + 1, 1e19):
        with pytest.raises(ConfigError, match="^n_steps: must be <= sys.maxsize"):
            replace(builtin_scenario("banana"), n_steps=n)
    with pytest.raises(ConfigError, match="h"):
        replace(builtin_scenario("banana"), h=0.0)
    with pytest.raises(ConfigError, match="field"):
        replace(builtin_scenario("banana"), field_name="vortex")
    with pytest.raises(ConfigError, match="rule"):
        replace(builtin_scenario("banana"), rule="simpson")


@pytest.mark.parametrize("key", ["x0", "v0"])
@pytest.mark.parametrize("bad", [5, None, ("a", 0, 0), (1, 2), (math.nan, 0, 0),
                                 "105", (True, 0, 0), (10**400, 0, 0)],
                         ids=["int", "None", "string", "two", "nan", "text", "bool",
                              "401-digits"])
def test_scenario_start_vector_is_a_config_error(key, bad):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        replace(builtin_scenario("banana"), **{key: bad})


@pytest.mark.parametrize("key,bad", [
    ("mass", None), ("charge", "x"), ("h", None), ("n_steps", "5"),
    ("stride", None), ("n_steps", 2.5), ("method", 5), ("solver", None),
    ("solver", {"tolerance": 1e-12}), ("output", 5),
])
def test_scenario_value_of_the_wrong_type_is_a_config_error(key, bad):
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        replace(builtin_scenario("banana"), **{key: bad})


@pytest.mark.parametrize("B", [[0.0, 0.0, 1.0], (0, 0, 1), np.array([0.0, 0.0, 1.0])],
                         ids=["list", "tuple", "array"])
def test_field_vector_param_is_any_sequence_as_vec3_takes(B):
    scn = Scenario(name="u", field_name="uniform", field_params={"B": B})
    assert scn.system().field.B == (0.0, 0.0, 1.0)


W2 = bdli.QuadratureRule("w2", (0.0, 1.0), (0.5, 0.5), 1)


def test_scenario_rule_is_data_not_selector():
    base = replace(builtin_scenario("banana"), n_steps=3)
    assert replace(base, method="dli:simpson").stepper == "dli:simpson"
    own = replace(base, method="dli:w2", rule=W2)
    assert own.stepper is W2
    # a method that does not name the rule runs without it, and keeps it
    boris = replace(own, method="boris")
    assert boris.rule is W2 and boris.stepper == "boris"
    assert np.array_equal(boris.run_trajectory().states,
                          replace(base, method="boris").run_trajectory().states)
    with pytest.raises(ConfigError, match="method: unknown quadrature rule 'w2'"):
        replace(base, method="dli:w2")


# --- config files ---------------------------------------------------------------

def write_config(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1))
    return p


def test_load_config_builtin_override(tmp_path):
    p = write_config(tmp_path, {"builtin": "banana", "h": "pi/20"})
    s = load_config(p)
    assert s.h == pytest.approx(math.pi / 20, abs=0.0)
    assert s.n_steps == 50_000
    assert s.name == "banana"


def test_load_config_rejects_zero_steps(tmp_path):
    p = write_config(tmp_path, {"builtin": "banana", "n_steps": 0})
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(p)


def test_load_config_rejects_unknown_key(tmp_path):
    p = write_config(tmp_path, {"builtin": "banana", "steps": 10})
    with pytest.raises(ConfigError, match="steps"):
        load_config(p)


def test_load_config_method_rule(tmp_path):
    p = write_config(tmp_path, {"builtin": "drift2d", "method": "dli:simpson"})
    s = load_config(p)
    assert s.method == "dli:simpson"
    assert s.rule is None and s.stepper == "dli:simpson"


def test_load_config_full_scenario(tmp_path):
    doc = {
        "name": "well",
        "field": {"name": "quartic_well", "params": {"strength": 1.0}},
        "x0": [1.0, 0.0, 0.0],
        "v0": [0.2, 0.2, 0.1],
        "h": 0.05,
        "n_steps": 100,
        "method": "bdli",
        "solver": {"tolerance": 1e-13},
    }
    s = load_config(write_config(tmp_path, doc))
    assert s.field_name == "quartic_well"
    assert s.solver.tolerance == 1e-13
    assert s.solver.max_iterations == 200


def test_load_config_requires_core_fields(tmp_path):
    p = write_config(tmp_path, {"name": "x", "field": "uniform"})
    with pytest.raises(ConfigError, match="x0"):
        load_config(p)


def test_load_config_parse_error_has_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "builtin": "banana",\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(p)


def test_load_config_inline_custom_rule(tmp_path):
    doc = {
        "builtin": "banana",
        "n_steps": 5,
        "rule": {
            "name": "cfg_weighted4",
            "pairs": [[0.0, 0.125], [1 / 3, 0.375], [2 / 3, 0.375], [1.0, 0.125]],
            "degree": 3,
        },
    }
    s = load_config(write_config(tmp_path, doc))
    assert s.method == "dli:cfg_weighted4"
    assert s.rule.name == "cfg_weighted4" and s.stepper is s.rule
    # the scenario's own rule drives a working integration
    traj = s.run_trajectory()
    assert len(traj) == 6


def test_custom_rule_roundtrips_through_config(tmp_path):
    doc = {"builtin": "banana", "n_steps": 5,
           "rule": {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]], "degree": 1}}
    scn = load_config(write_config(tmp_path, doc))
    assert scn.rule == W2
    p = write_config(tmp_path, scenario_to_config(scn), "rt.json")
    assert load_config(p) == scn


@pytest.mark.parametrize("doc,method", [
    ({"builtin": "banana", "rule": "simpson"}, "dli:simpson"),
    ({"builtin": "banana", "method": "dli:simpson", "rule": "simpson"},
     "dli:simpson"),
    ({"builtin": "banana", "method": "bdli", "rule": "boole"}, "bdli"),
    ({"builtin": "banana", "rule": None}, "bdli"),
    ({"name": "full", "field": "uniform", "x0": [0, 0, 0], "v0": [0.1, 0, 0],
      "h": 0.1, "n_steps": 2, "rule": "simpson"}, "dli:simpson"),
])
def test_rule_key_sets_the_method(doc, method):
    assert _scenario_from_dict(doc, "doc").method == method


@pytest.mark.parametrize("doc", [
    {"builtin": "banana", "method": "bdli", "rule": "simpson"},
    {"builtin": "banana", "method": "dli:boole", "rule": {
        "name": "w2", "pairs": [[0, 0.5], [1, 0.5]], "degree": 1}},
    {"name": "full", "field": "uniform", "x0": [0, 0, 0], "v0": [0.1, 0, 0],
     "h": 0.1, "n_steps": 2, "method": "rk4", "rule": "simpson"},
])
def test_rule_key_contradicting_method_is_refused(doc):
    with pytest.raises(ConfigError, match="rule: .* contradicts method"):
        _scenario_from_dict(doc, "doc")


def _w2_doc(pairs, degree):
    return {"name": "well", "field": {"name": "quartic_well",
                                      "params": {"B": [0, 0, 1], "strength": 1}},
            "x0": [1, 0, 0], "v0": [0.2, 0.2, 0.1], "h": 0.05, "n_steps": 100,
            "rule": {"name": "w2", "pairs": pairs, "degree": degree}}


TRAPEZOID_PAIRS = [[0, 0.5], [1, 0.5]]
SIMPSON_PAIRS = [[0, 1 / 6], [0.5, 4 / 6], [1, 1 / 6]]


def test_same_rule_name_in_two_configs(tmp_path):
    # each config's w2 runs its own nodes, in one process, in either order
    trap = _scenario_from_dict(_w2_doc(TRAPEZOID_PAIRS, 1), "trap")
    simp = _scenario_from_dict(_w2_doc(SIMPSON_PAIRS, 3), "simp")
    assert trap.method == simp.method == "dli:w2"
    for scn, builtin in ((simp, "dli:simpson"), (trap, "dli:trapezoid")):
        states = scn.run_trajectory().states
        ref = replace(scn, method=builtin).run_trajectory().states
        assert np.array_equal(states, ref)
    err = {}
    for label, scn in (("trap", trap), ("simp", simp)):
        err[label] = run_scenario(
            replace(scn, output=str(tmp_path / f"{label}.csv"))).max_abs_err_H
    assert err["trap"] > 1e3 * err["simp"]


def test_undefined_custom_rule_is_refused():
    # refused before and after another config in the process defined w2
    undefined = {"builtin": "banana", "method": "dli:w2"}
    for define in (False, True):
        if define:
            _scenario_from_dict(_w2_doc(TRAPEZOID_PAIRS, 1), "w2")
        with pytest.raises(ConfigError, match="method: unknown quadrature rule"):
            _scenario_from_dict(undefined, "doc")


def test_compare_runs_the_scenarios_own_rule(tmp_path):
    doc = {**_w2_doc(TRAPEZOID_PAIRS, 1), "n_steps": 50}
    scn = _scenario_from_dict(doc, "doc")
    report = compare_methods(scn, ["dli:w2", "boris", "dli:trapezoid"],
                             out_dir=tmp_path)
    by_method = {s.method: s for s in report.summaries}
    assert by_method["dli:w2"] == replace(
        by_method["dli:trapezoid"], method="dli:w2",
        series_path=str(tmp_path / "well_dli-w2_series.csv"))
    assert by_method["boris"].mean_iters == 0.0


def test_load_config_integral_float_counts(tmp_path):
    p = write_config(tmp_path, {"builtin": "banana", "n_steps": 1e4,
                                "stride": 2.0, "solver": {"max_iterations": 5e1}})
    s = load_config(p)
    assert (s.n_steps, s.stride, s.solver.max_iterations) == (10_000, 2, 50)
    assert all(type(n) is int for n in (s.n_steps, s.stride, s.solver.max_iterations))


BUILTIN_NAMES = ("banana", "drift2d", "transit")
HUGE = 10**400  # a 401-digit JSON integer, beyond the float range


def _config_documents():
    """JSON objects over the config keys plus random ones.

    Each value is drawn either in the shape its key expects or as any JSON
    scalar, list or object; numbers favour the edge cases (fractions, NaN,
    +-inf, booleans, out-of-range integers).  A document holds a few keys,
    so that one bad value rarely hides the others.
    """
    numbers = st.sampled_from([1.5, math.nan, math.inf, -math.inf, HUGE, True]) | (
        st.integers(-3, 10**5) | st.floats())
    names = st.sampled_from([
        *BUILTIN_NAMES, *fields.FIELD_MODELS, "bdli", "boris", "dli:simpson", "boole",
        "pi/10", "-2*pi/0.5", "1e400", "nan",
    ]) | st.text(max_size=4)
    scalars = numbers | names | st.none()
    anything = scalars | st.lists(scalars, max_size=4) | st.dictionaries(
        st.text(max_size=4), scalars, max_size=3)
    vec3 = st.lists(numbers, min_size=3, max_size=3)

    def obj(**fields):
        return st.fixed_dictionaries({}, optional=fields)

    params = st.dictionaries(
        st.sampled_from(["B0", "R0", "safety_factor", "epsilon", "B", "E",
                         "strength"]) | st.text(max_size=4),
        numbers | vec3, max_size=2)
    pairs = st.lists(st.lists(numbers, max_size=3), max_size=4)
    shaped = {
        "mass": numbers, "charge": numbers, "h": numbers | names,
        "n_steps": numbers, "stride": numbers, "x0": vec3, "v0": vec3,
        "name": names, "method": names, "output": names,
        "field": names | obj(name=names, params=params),
        "rule": names | obj(name=scalars, pairs=pairs | scalars, degree=numbers),
        "solver": obj(tolerance=numbers, max_iterations=numbers),
    }
    keys = st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), max_size=3, unique=True)
    return st.builds(
        lambda base, known, other: {**base, **known, **other},
        st.sampled_from([{}] + [{"builtin": b} for b in BUILTIN_NAMES]),
        keys.flatmap(lambda ks: st.fixed_dictionaries(
            {k: shaped[k] | anything for k in ks})),
        st.dictionaries(st.text(max_size=4), anything, max_size=1),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_config_documents())
def test_config_parser_raises_only_config_error(doc):
    try:
        scn = _scenario_from_dict(doc, "doc")
    except ConfigError:
        return
    # an accepted document holds finite numbers and integer counts
    numbers = (scn.mass, scn.charge, scn.h, *scn.x0, *scn.v0, scn.solver.tolerance)
    assert all(type(c) is float and math.isfinite(c) for c in numbers)
    counts = (scn.n_steps, scn.stride, scn.solver.max_iterations)
    assert all(type(n) is int for n in counts)


def test_load_config_bad_solver_key(tmp_path):
    p = write_config(tmp_path, {"builtin": "banana", "solver": {"tol": 1e-12}})
    with pytest.raises(ConfigError, match="solver"):
        load_config(p)


@pytest.mark.parametrize("scn", [
    builtin_scenario("drift2d"), builtin_scenario("banana"),
    builtin_scenario("transit"),
    # the step the scenario holds is written, not its builtin's "pi/10"
    replace(builtin_scenario("banana"), h=0.05),
], ids=["drift2d", "banana", "transit", "banana-h-0.05"])
def test_builtin_roundtrip_through_config(tmp_path, scn):
    p = write_config(tmp_path, scenario_to_config(scn))
    assert load_config(p) == scn


# --- run_scenario ---------------------------------------------------------------

@pytest.fixture
def small_banana(tmp_path):
    return replace(
        builtin_scenario("banana"), n_steps=200, output=str(tmp_path / "run.csv")
    )


def test_run_scenario_writes_series_and_summary(small_banana, tmp_path):
    summary = run_scenario(small_banana)
    series = tmp_path / "run.csv"
    assert series.is_file()
    lines = series.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z,vx,vy,vz,H,p_xi,mu,err_H,err_p_xi,err_mu,iters"
    assert len(lines) == 202  # header + 201 states
    assert summary.max_abs_err_H <= 1e-13
    assert summary.mean_iters > 1
    text = (tmp_path / "run.summary.txt").read_text()
    for key in ("max_abs_err_H", "max_abs_err_p_xi", "max_abs_err_mu",
                "mean_iters"):
        assert f"{key} = " in text or f"{key} =" in text


def test_run_scenario_summary_matches_series(small_banana, tmp_path):
    summary = run_scenario(small_banana)
    rows = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
    assert summary.max_abs_err_H == np.abs(rows["err_H"]).max()
    assert summary.max_abs_err_p_xi == np.abs(rows["err_p_xi"]).max()
    assert summary.max_abs_err_mu == np.abs(rows["err_mu"]).max()
    assert summary.final_abs_err_H == abs(rows["err_H"][-1])


def test_run_scenario_deterministic(small_banana, tmp_path):
    files = (tmp_path / "run.csv", tmp_path / "run.summary.txt")
    run_scenario(small_banana)
    first = [f.read_bytes() for f in files]
    run_scenario(small_banana)
    assert [f.read_bytes() for f in files] == first


def test_run_scenario_stride(small_banana, tmp_path):
    strided = replace(small_banana, stride=50)
    run_scenario(strided)
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 5  # header + steps 0,50,100,150,200


def test_run_scenario_p_xi_nan_without_vector_potential(monkeypatch, tmp_path):
    class NoA(fields.UniformField):
        name = "uniform_no_a"
        a_at = fields.FieldModel.a_at

    monkeypatch.setitem(fields.FIELD_MODELS, NoA.name, NoA)
    scn = Scenario(name="no_a", field_name=NoA.name, x0=(0.0, 0.0, 0.0),
                   v0=(0.1, 0.0, 0.0), h=0.1, n_steps=4, method="boris",
                   output=str(tmp_path / "no_a.csv"))
    summary = run_scenario(scn)
    rows = np.genfromtxt(tmp_path / "no_a.csv", delimiter=",", names=True)
    assert np.isnan(rows["p_xi"]).all() and np.isnan(rows["err_p_xi"]).all()
    assert math.isnan(summary.max_abs_err_p_xi)
    assert np.isfinite(rows["H"]).all()


def test_run_scenario_max_is_nan_when_b_vanishes_late(monkeypatch, tmp_path):
    # B vanishes past x = 0.2, so mu is NaN only at the later rows; any NaN
    # makes the summary maximum NaN, where the builtin max would skip it
    class Ending(fields.UniformField):
        name = "uniform_ending"

        def b_at(self, x, y, z):
            return self.B if x <= 0.2 else (0.0, 0.0, 0.0)

    monkeypatch.setitem(fields.FIELD_MODELS, Ending.name, Ending)
    scn = Scenario(name="ending", field_name=Ending.name,
                   field_params={"B": (1.0, 0.0, 0.0)}, x0=(0.0, 0.0, 0.0),
                   v0=(0.1, 0.0, 0.0), h=0.1, n_steps=40, method="boris",
                   output=str(tmp_path / "ending.csv"))
    summary = run_scenario(scn)
    rows = np.genfromtxt(tmp_path / "ending.csv", delimiter=",", names=True)
    assert not np.isnan(rows["mu"][:20]).any() and np.isnan(rows["mu"][-1])
    assert math.isnan(summary.max_abs_err_mu)


def test_run_scenario_relative_errors(small_banana, tmp_path):
    run_scenario(small_banana, relative_errors=True)
    rel = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
    run_scenario(small_banana)
    ab = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
    H0 = ab["H"][0]
    assert rel["err_H"][-1] == pytest.approx(ab["err_H"][-1] / abs(H0), rel=1e-12)


# --- convergence study ------------------------------------------------------------

def test_convergence_study_validation():
    scn = replace(builtin_scenario("banana"), n_steps=100)
    with pytest.raises(ValueError, match="divide"):
        convergence_study(scn, [scn.h / 3.0001], scn.h / 64)
    with pytest.raises(ValueError, match="finer"):
        convergence_study(scn, [scn.h, scn.h / 2], scn.h)
    with pytest.raises(ValueError, match="nonempty"):
        convergence_study(scn, [], scn.h / 64)
    with pytest.raises(ValueError, match="^h_list: steps must be finite"):
        convergence_study(scn, [math.nan, scn.h], scn.h / 64)
    with pytest.raises(ValueError, match="^total time h \\* n_steps = 1e\\+308"):
        convergence_study(replace(scn, h=1e308), [scn.h], scn.h / 64)
    # a rung whose count exceeds sys.maxsize is refused by its Scenario, and a
    # step so fine that T / h overflows does not divide T
    with pytest.raises(ValueError, match="^reference_h: step 1e-301: n_steps: "):
        convergence_study(scn, [scn.h], 1e-301)
    with pytest.raises(ValueError, match="^reference_h: step 5e-324 does not divide"):
        convergence_study(scn, [scn.h], 5e-324)


def test_loglog_slope_is_nan_when_an_error_is_zero():
    assert math.isnan(_loglog_slope(((0.1, 1e-3), (0.05, 0.0))))
    assert _loglog_slope(((0.1, 1e-2), (0.05, 2.5e-3))) == pytest.approx(2.0)


def test_convergence_study_second_order_on_tokamak():
    scn = replace(builtin_scenario("banana"), n_steps=100)  # T = 10 pi
    hs = [scn.h, scn.h / 2, scn.h / 4]
    study = convergence_study(scn, hs, scn.h / 64)
    assert len(study.rows) == 3
    errs = [e for _, e in study.rows]
    assert errs[0] > errs[1] > errs[2]
    assert 1.8 <= study.slope <= 2.2
    assert "slope" in study.as_text()


# --- compare_methods ------------------------------------------------------------

def test_compare_needs_two_methods(small_banana):
    with pytest.raises(ValueError, match="at least two"):
        compare_methods(small_banana, ["bdli"])


@pytest.mark.parametrize("methods,message", [
    (["bdli", "gauss"], "methods: method: unknown method 'gauss'"),
    (["bdli", 5], "methods: method: expected a string, got 5"),
    (["bdli", "dli:w2"], "methods: method: unknown quadrature rule 'w2'"),
])
def test_compare_checks_every_method_before_the_first_run(small_banana, tmp_path,
                                                          methods, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        compare_methods(small_banana, methods, out_dir=tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_compare_quadrature_rules_on_quartic(tmp_path, quartic_scenario):
    report = compare_methods(
        quartic_scenario, ["dli:trapezoid", "dli:boole"], out_dir=tmp_path
    )
    by_method = {s.method: s for s in report.summaries}
    trap = by_method["dli:trapezoid"].max_abs_err_H
    boole = by_method["dli:boole"].max_abs_err_H
    # degree-of-exactness separation on a degree-4 energy
    assert trap > 1e3 * boole
    assert (tmp_path / "quartic_dli-trapezoid_series.csv").is_file()
    assert (tmp_path / "quartic_dli-boole_series.csv").is_file()
    table = (tmp_path / "quartic_compare.txt").read_text()
    assert "dli:trapezoid" in table and "dli:boole" in table


def test_compare_bdli_vs_boris(tmp_path):
    scn = replace(builtin_scenario("drift2d"), n_steps=1500)
    report = compare_methods(scn, ["bdli", "boris"], out_dir=tmp_path)
    by_method = {s.method: s for s in report.summaries}
    assert by_method["bdli"].max_abs_err_H < by_method["boris"].max_abs_err_H
