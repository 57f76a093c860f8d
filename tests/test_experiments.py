import copy
import json
import math
import pickle
import tempfile
from collections.abc import Sized
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from sys import maxsize

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bdli
from bdli import experiments, fields
from bdli import (
    ChargedParticleSystem,
    ConfigError,
    ConvergenceStudy,
    PhaseState,
    QuadratureRule,
    QuarticWellField,
    Scenario,
    SolverOptions,
    TokamakField,
    UniformField,
    boris_step,
    builtin_rule,
    builtin_scenario,
    compare_methods,
    convergence_study,
    load_config,
    parse_step_size,
    run_scenario,
    scenario_to_config,
)
from bdli.experiments import _SCENARIO_KEYS, _scenario_from_dict
from bdli.fields import as_real


# --- builtins ---------------------------------------------------------------

def test_builtin_drift2d():
    s = builtin_scenario("drift2d")
    assert s.field == {"name": "cylindrical_drift", "params": {"epsilon": 1e-2}}
    assert s.mass == 1.0 and s.charge == 1.0
    assert s.x0 == (0.0, 0.1, 0.0)
    assert s.v0 == (0.1, 0.01, 0.0)
    assert s.h == pytest.approx(math.pi / 10, abs=0.0)
    assert s.n_steps == 50_000
    assert s.method == "bdli" and s.rule is None


def test_builtin_banana_and_transit():
    b = builtin_scenario("banana")
    assert b.field["name"] == "tokamak"
    assert b.x0 == (1.05, 0.0, 0.0)
    assert b.v0 == (0.0, 4.816e-4, 2.059e-3)
    t = builtin_scenario("transit")
    assert t.v0 == (0.0, 9.632e-4, 2.059e-3)
    assert t.x0 == b.x0 and t.h == b.h and t.n_steps == b.n_steps


def test_builtin_scenarios_do_not_share_params():
    # banana and transit are one document apart; a scenario's field and its
    # params are read-only, so neither can drift from the model it built
    banana = builtin_scenario("banana")
    with pytest.raises(TypeError):
        banana.field["params"]["B0"] = 5.0
    with pytest.raises(TypeError):
        banana.field["name"] = "uniform"
    assert builtin_scenario("transit").field["params"]["B0"] == 1.0
    assert banana.field["params"]["B0"] == banana.system().field.B0 == 1.0


@pytest.mark.parametrize("name", bdli.BUILTIN_SCENARIOS)
def test_scenario_pickles_and_copies_to_an_equal_scenario(name):
    rule = {"name": "w2", "pairs": [[0.0, 0.5], [1.0, 0.5]], "degree": 1}
    for scn in (builtin_scenario(name), replace(builtin_scenario(name), rule=rule,
                                                method=None, stride=3)):
        for twin in (pickle.loads(pickle.dumps(scn)), copy.deepcopy(scn),
                     copy.copy(scn)):
            assert twin == scn and twin.stepper == scn.stepper
            assert scenario_to_config(twin) == scenario_to_config(scn)


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
        replace(builtin_scenario("banana"), field="vortex")
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
    ("solver", [1e-12]), ("output", 5), ("name", 5),
])
def test_scenario_value_of_the_wrong_type_is_a_config_error(key, bad):
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        replace(builtin_scenario("banana"), **{key: bad})


@pytest.mark.parametrize("key,bad", [
    ("n_steps", Fraction(3, 2)), ("stride", Decimal("2.7")),
    ("n_steps", Fraction(4, 1)), ("stride", Decimal("2")),
], ids=repr)
def test_scenario_count_of_a_non_integer_type_is_refused(key, bad):
    # these used to be truncated: Fraction(3, 2) steps ran 1 step
    with pytest.raises(ConfigError, match=f"^{key}: expected an integer, got "):
        replace(builtin_scenario("banana"), **{key: bad})


def test_scenario_refuses_a_decimal_mass():
    with pytest.raises(ConfigError,
                       match=r"^mass: expected a number, got Decimal\('1'\)$"):
        replace(builtin_scenario("banana"), mass=Decimal("1"))


def test_scenario_holds_the_floats_its_particle_holds():
    scn = replace(builtin_scenario("banana"), mass=Fraction(1, 2), charge=2)
    assert (scn.mass, scn.charge) == (scn.system().mass, scn.system().charge)
    assert (type(scn.mass), type(scn.charge)) == (float, float)
    assert scn == replace(builtin_scenario("banana"), mass=0.5, charge=2.0)


def test_scenario_reads_step_size_text():
    # the same text a config's "h" or the --h flag gives
    assert Scenario(name="u", field="uniform", h="pi/20") == Scenario(
        name="u", field="uniform", h=math.pi / 20)
    scn = builtin_scenario("banana")
    assert replace(scn, h="pi/20") == replace(scn, h=math.pi / 20)


@pytest.mark.parametrize("B", [[0.0, 0.0, 1.0], (0, 0, 1), np.array([0.0, 0.0, 1.0])],
                         ids=["list", "tuple", "array"])
def test_field_vector_param_is_any_sequence_as_vec3_takes(B):
    scn = Scenario(name="u", field={"name": "uniform", "params": {"B": B}})
    assert scn.system().field.B == (0.0, 0.0, 1.0)


W2 = bdli.QuadratureRule("w2", (0.0, 1.0), (0.5, 0.5), 1)


def test_scenario_rule_is_data_not_selector():
    base = replace(builtin_scenario("banana"), n_steps=3)
    assert replace(base, method="dli:simpson").stepper is builtin_rule("simpson")
    own = replace(base, method="dli:w2", rule=W2)
    assert own.stepper is W2
    # a method that does not name the rule runs without it, and keeps it
    boris = replace(own, method="boris")
    assert boris.rule is W2 and boris.stepper is boris_step
    assert np.array_equal(boris.run_trajectory().states,
                          replace(base, method="boris").run_trajectory().states)
    with pytest.raises(ConfigError, match="method: unknown quadrature rule 'w2'"):
        replace(base, method="dli:w2")


def test_method_text_is_read_once_per_scenario(monkeypatch, tmp_path):
    # the scenario reads it when built; a run passes on the stepper it holds
    scn = replace(builtin_scenario("banana"), n_steps=5,
                  output=str(tmp_path / "run.csv"))
    calls = []
    for mod in (bdli.integrators, bdli.experiments):  # each name it is bound to
        def counting(*args, resolve=mod.resolve_method):
            calls.append(args)
            return resolve(*args)
        monkeypatch.setattr(mod, "resolve_method", counting)
    run_scenario(scn)
    assert calls == []
    replace(scn, method="boris").run_trajectory()
    assert calls == [("boris", None)]


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
    assert s.rule is None and s.stepper is builtin_rule("simpson")


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
    assert s.field["name"] == "quartic_well"
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


W2_SPEC = {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]], "degree": 1}


def test_direct_scenario_takes_the_document_forms():
    # with a rule and no method, the scenario runs its own rule
    scn = Scenario(name="u", field="uniform", rule=W2)
    assert scn.stepper is W2 and scn.method == "dli:w2"
    assert Scenario(name="u", field="uniform").method == "bdli"
    inline = Scenario(name="u", field={"name": "uniform"}, rule=W2_SPEC,
                      solver={"tolerance": 1e-12}, method=None)
    assert inline == replace(scn, solver=SolverOptions(tolerance=1e-12))
    assert inline.stepper is inline.rule == W2
    assert inline.field == {"name": "uniform", "params": {}}
    assert set(scenario_to_config(inline)) == _SCENARIO_KEYS  # every key, written


_FIELDS = (
    "tokamak", "cylindrical_drift", "uniform", "quartic_well", {"name": "uniform"},
    {"name": "tokamak", "params": {"B0": 1.5, "R0": 2, "safety_factor": 3.0}},
    {"name": "cylindrical_drift", "params": {"epsilon": 0.02}},
    {"name": "uniform", "params": {"B": [0, 0, 1], "E": [0.1, 0.0, -2]}},
    {"name": "quartic_well", "params": {"B": [0.5, 0, 1], "strength": 2}},
)


@st.composite
def _full_documents(draw):
    """A config document without ``builtin``, of valid values in their
    document forms: every required key and some of the others."""
    number = st.integers(-3, 3) | st.floats(-2.0, 2.0, allow_nan=False)
    doc = {
        "name": draw(st.sampled_from(["u", "run_1", "", "ü x"])),
        "field": draw(st.sampled_from(_FIELDS)),
        "x0": draw(st.lists(number, min_size=3, max_size=3)),
        "v0": draw(st.lists(number, min_size=3, max_size=3)),
        "h": draw(st.sampled_from(["pi/10", "-pi/3", "0.25", "2*pi/5", 3, 1e-3])
                  | st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)),
        "n_steps": draw(st.integers(1, 10**6) | st.just(1e4)),
    }
    rule = draw(st.sampled_from([None, W2_SPEC, {
        "name": "s3", "pairs": [[0, 1 / 6], [0.5, 2 / 3], [1, 1 / 6]], "degree": 3}]))
    if rule is not None or draw(st.booleans()):  # "rule": null, or no key
        doc["rule"] = rule
    methods = ["bdli", "boris", "rk4", "dli:simpson", None]
    optional = {
        "mass": st.floats(0.1, 10.0) | st.integers(1, 5),
        "charge": number,
        "stride": st.integers(1, 5) | st.just(2.0),
        "method": st.sampled_from(methods + ([] if rule is None
                                             else [f"dli:{rule['name']}"])),
        "solver": st.fixed_dictionaries({}, optional={
            "tolerance": st.floats(1e-15, 1e-6), "max_iterations": st.integers(1, 500)}),
        "output": st.sampled_from([None, "out/s.csv"]),
    }
    return {**doc, **draw(st.fixed_dictionaries({}, optional=optional))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_full_documents())
def test_a_document_is_the_arguments_of_its_scenario(doc):
    """A document's scenario keys, passed to ``Scenario`` as they stand,
    give the scenario ``load_config`` reads from it, and the document
    ``scenario_to_config`` writes reads back to that scenario."""
    with tempfile.TemporaryDirectory() as d:
        scn = load_config(write_config(Path(d), doc))
        assert Scenario(**doc) == scn
        cfg = scenario_to_config(scn)
        assert Scenario(**cfg) == scn
        assert load_config(write_config(Path(d), cfg, "rt.json")) == scn
        assert scenario_to_config(Scenario(**cfg)) == cfg


@pytest.mark.parametrize("doc,method", [
    ({"builtin": "banana", "rule": W2_SPEC}, "dli:w2"),
    ({"builtin": "banana", "method": "boris", "rule": W2_SPEC}, "boris"),
    ({"builtin": "banana", "method": "bdli", "rule": W2_SPEC}, "bdli"),
    ({"builtin": "banana", "rule": None}, "bdli"),
    ({"name": "full", "field": "uniform", "x0": [0, 0, 0], "v0": [0.1, 0, 0],
      "h": 0.1, "n_steps": 2, "rule": W2_SPEC}, "dli:w2"),
])
def test_rule_key_sets_the_method(doc, method):
    # a defined rule runs unless the document names a method; either way
    # the scenario keeps it
    scn = _scenario_from_dict(doc, "doc")
    assert scn.method == method
    assert scn.rule == (None if doc["rule"] is None else W2)


@pytest.mark.parametrize("doc", [
    {"builtin": "banana", "method": "bdli", "rule": "simpson"},
    {"builtin": "banana", "method": "boris", "rule": "boole"},
    {"name": "full", "field": "uniform", "x0": [0, 0, 0], "v0": [0.1, 0, 0],
     "h": 0.1, "n_steps": 2, "method": "rk4", "rule": "simpson"},
])
def test_rule_key_contradicting_method_is_refused(doc):
    # "method" alone names the stepper and "rule" only defines one, so a
    # rule named as text is refused, whatever the method
    with pytest.raises(ConfigError, match="^rule: expected an object"):
        _scenario_from_dict(doc, "doc")


@pytest.mark.parametrize("method", ["bdli", "boris"])
def test_own_rule_roundtrips_next_to_any_method(tmp_path, method):
    scn = replace(builtin_scenario("banana"), method=method, rule=W2)
    p = write_config(tmp_path, scenario_to_config(scn))
    assert load_config(p) == scn


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


# a value of each kind that a config or a caller may pass, good or bad
VALUES = (True, False, "1", "8.0", math.nan, math.inf, -math.inf, -1.0, 0, 1, 1.5,
          8.0, Fraction(3, 2), Fraction(1, 1), Decimal("8"), Decimal("1.5"), None)
_W2 = {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]]}
# key: (direct construction, the config document, the value the object holds)
HOLDERS = {
    "mass": (lambda v: ChargedParticleSystem(v, 1.0, TokamakField()),
             lambda v: {"mass": v}, lambda o: o.mass),
    "charge": (lambda v: ChargedParticleSystem(1.0, v, TokamakField()),
               lambda v: {"charge": v}, lambda o: o.charge),
    "tolerance": (lambda v: SolverOptions(tolerance=v),
                  lambda v: {"solver": {"tolerance": v}}, lambda o: o.tolerance),
    "max_iterations": (lambda v: SolverOptions(max_iterations=v),
                       lambda v: {"solver": {"max_iterations": v}},
                       lambda o: o.max_iterations),
    "degree": (lambda v: QuadratureRule("w2", (0, 1), (0.5, 0.5), v),
               lambda v: {"rule": {**_W2, "degree": v}},
               lambda o: o.degree_of_exactness),
    "B0": (lambda v: TokamakField(B0=v),
           lambda v: {"field": {"name": "tokamak", "params": {"B0": v}}},
           lambda o: o.B0),
}


def _held(key, scn):
    """The object of ``scn`` that holds ``key``."""
    return {"mass": scn.particle, "charge": scn.particle, "tolerance": scn.solver,
            "max_iterations": scn.solver, "degree": scn.rule,
            "B0": scn.particle.field}[key]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(HOLDERS)), st.sampled_from(VALUES))
def test_direct_construction_and_a_config_refuse_the_same_values(key, value):
    direct, document, held = HOLDERS[key]
    try:
        obj = direct(value)
    except ValueError:
        obj = None
    try:
        scn = _scenario_from_dict({"builtin": "banana", **document(value)}, "doc")
    except ConfigError:
        scn = None
    assert (obj is None) == (scn is None)
    if obj is not None:
        assert held(obj) == held(_held(key, scn))
        assert type(held(obj)) is type(held(_held(key, scn)))


# 3-vector components of each kind, good ones first, and vectors of them
COMPONENTS = (0, -2, 1.5, Fraction(1, 2), np.float64(0.25), np.int64(3), True, "1",
              math.nan, math.inf, -math.inf, Decimal("1.05"), 10**400, None)
_VECTORS = st.one_of(
    st.lists(st.sampled_from(COMPONENTS[:6]), min_size=3, max_size=3),
    st.lists(st.sampled_from(COMPONENTS), min_size=2, max_size=4),
    st.sampled_from(["001", "1.05", 5, None, np.array([0.0, 1.0, 0.0])]))
_ZERO = (0.0, 0.0, 0.0)
# holder: (the key a direct construction names, the construction, the key a
# config names, the config document, the object of a scenario holding the
# vector, the attribute that holds it)
VECTOR_HOLDERS = {
    "x0": ("x0", lambda v: Scenario(name="u", field="uniform", x0=v),
           "x0", lambda v: {"x0": v}, lambda scn: scn, "x0"),
    "v0": ("v0", lambda v: Scenario(name="u", field="uniform", v0=v),
           "v0", lambda v: {"v0": v}, lambda scn: scn, "v0"),
    "uniform B": ("B", lambda v: UniformField(B=v), "field: B",
                  lambda v: {"field": {"name": "uniform", "params": {"B": v}}},
                  lambda scn: scn.particle.field, "B"),
    "uniform E": ("E", lambda v: UniformField(E=v), "field: E",
                  lambda v: {"field": {"name": "uniform", "params": {"E": v}}},
                  lambda scn: scn.particle.field, "E"),
    "quartic B": ("B", lambda v: QuarticWellField(B=v), "field: B",
                  lambda v: {"field": {"name": "quartic_well", "params": {"B": v}}},
                  lambda scn: scn.particle.field, "B"),
    "PhaseState x": ("x", lambda v: PhaseState(v, _ZERO), "x0", lambda v: {"x0": v},
                     Scenario.initial_state, "x"),
    "PhaseState v": ("v", lambda v: PhaseState(_ZERO, v), "v0", lambda v: {"v0": v},
                     Scenario.initial_state, "v"),
}


def _finite_real(c) -> bool:
    try:
        as_real("c", c, finite=True)
    except ConfigError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@example("x0", [Decimal("1.05"), 0, 0])
@given(st.sampled_from(sorted(VECTOR_HOLDERS)), _VECTORS)
def test_a_3vector_is_three_components_that_as_real_takes(holder, vec):
    """Direct construction and a config accept the same vectors: exactly
    those of three components that ``as_real(..., finite=True)`` takes.
    Each refusal names its key, a config's with the config path."""
    key, direct, config_key, document, of_scenario, attr = VECTOR_HOLDERS[holder]
    ok = isinstance(vec, Sized) and len(vec) == 3 and all(map(_finite_real, vec))
    try:
        obj = direct(vec)
    except ConfigError as exc:
        assert str(exc).startswith(f"{key}: "), str(exc)
        obj = None
    try:
        scn = _scenario_from_dict({"builtin": "banana", **document(vec)}, "doc")
    except ConfigError as exc:
        assert str(exc).startswith(f"{config_key}: "), str(exc)
        scn = None
    assert (obj is not None) == (scn is not None) == ok
    if ok:
        held = getattr(obj, attr)
        assert held == getattr(of_scenario(scn), attr) == tuple(map(float, vec))
        assert all(type(c) is float for c in held)


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
    assert lines[0] == "t,x,y,z,vx,vy,vz,H,p_xi,mu,iters"
    assert len(lines) == 202  # header + 201 states
    assert summary.max_abs_err_H <= 1e-13
    assert summary.mean_iters > 1
    text = (tmp_path / "run.summary.txt").read_text()
    for key in ("max_abs_err_H", "max_abs_err_p_xi", "max_abs_err_mu",
                "mean_iters"):
        assert f"{key} = " in text or f"{key} =" in text


def test_run_scenario_summary_matches_series(small_banana, tmp_path):
    # %.17g round-trips a double, so a reader of the file recomputes the
    # summary's errors Q - Q[0] bit for bit
    summary = run_scenario(small_banana)
    rows = np.genfromtxt(tmp_path / "run.csv", delimiter=",", names=True)
    for q in ("H", "p_xi", "mu"):
        err = np.abs(rows[q] - rows[q][0])
        assert getattr(summary, f"max_abs_err_{q}") == err.max(), q
        assert getattr(summary, f"final_abs_err_{q}") == err[-1], q


def test_run_scenario_deterministic(small_banana, tmp_path):
    files = (tmp_path / "run.csv", tmp_path / "run.summary.txt")
    run_scenario(small_banana)
    first = [f.read_bytes() for f in files]
    run_scenario(small_banana)
    assert [f.read_bytes() for f in files] == first


def test_run_scenario_stride(small_banana, monkeypatch, tmp_path):
    # no stepper evaluates A or phi, so each call is one invariant at one
    # row: a strided run computes p_xi and H at the rows it writes only
    calls = {"a_at": 0, "phi_at": 0}

    class Counting(fields.TokamakField):
        name = "tokamak_counting"

        def a_at(self, x, y, z):
            calls["a_at"] += 1
            return super().a_at(x, y, z)

        def phi_at(self, x, y, z):
            calls["phi_at"] += 1
            return super().phi_at(x, y, z)

    monkeypatch.setitem(fields.FIELD_MODELS, Counting.name, Counting)
    field = {**small_banana.field, "name": Counting.name}
    strided = replace(small_banana, field=field, stride=50)
    run_scenario(strided)
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 5  # header + steps 0,50,100,150,200
    assert calls == {"a_at": 5, "phi_at": 5}


def test_run_scenario_p_xi_nan_without_vector_potential(monkeypatch, tmp_path):
    class NoA(fields.UniformField):
        name = "uniform_no_a"
        a_at = fields.FieldModel.a_at

    monkeypatch.setitem(fields.FIELD_MODELS, NoA.name, NoA)
    scn = Scenario(name="no_a", field=NoA.name, x0=(0.0, 0.0, 0.0),
                   v0=(0.1, 0.0, 0.0), h=0.1, n_steps=4, method="boris",
                   output=str(tmp_path / "no_a.csv"))
    summary = run_scenario(scn)
    rows = np.genfromtxt(tmp_path / "no_a.csv", delimiter=",", names=True)
    assert np.isnan(rows["p_xi"]).all()
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
    scn = Scenario(name="ending",
                   field={"name": Ending.name, "params": {"B": (1.0, 0.0, 0.0)}},
                   x0=(0.0, 0.0, 0.0),
                   v0=(0.1, 0.0, 0.0), h=0.1, n_steps=40, method="boris",
                   output=str(tmp_path / "ending.csv"))
    summary = run_scenario(scn)
    rows = np.genfromtxt(tmp_path / "ending.csv", delimiter=",", names=True)
    assert not np.isnan(rows["mu"][:20]).any() and np.isnan(rows["mu"][-1])
    assert math.isnan(summary.max_abs_err_mu)


def test_field_is_built_once_per_scenario(monkeypatch, tmp_path):
    banana = builtin_scenario("banana")
    calls = []

    def counting(name, **params):
        calls.append(name)
        return fields.make_field(name, **params)

    monkeypatch.setattr(experiments, "make_field", counting)
    scn = replace(banana, n_steps=5, output=str(tmp_path / "once.csv"))
    assert calls == ["tokamak"]
    run_scenario(scn)
    assert calls == ["tokamak"]


# --- convergence study ------------------------------------------------------------

def test_convergence_study_validation():
    scn = replace(builtin_scenario("banana"), n_steps=100)
    with pytest.raises(ConfigError, match="divide"):
        convergence_study(scn, [scn.h / 3.0001], scn.h / 64)
    with pytest.raises(ConfigError, match="finer"):
        convergence_study(scn, [scn.h, scn.h / 2], scn.h)
    with pytest.raises(ConfigError, match="nonempty"):
        convergence_study(scn, [], scn.h / 64)
    with pytest.raises(ConfigError,
                       match="^study: h_list: must be finite and nonzero, got nan$"):
        convergence_study(scn, [math.nan, scn.h], scn.h / 64)
    with pytest.raises(ConfigError,
                       match="^study: total time h \\* n_steps = 1e\\+308"):
        convergence_study(replace(scn, h=1e308), [scn.h], scn.h / 64)
    # a rung whose count exceeds sys.maxsize is refused by its Scenario, and a
    # step so fine that T / h overflows does not divide T
    with pytest.raises(ConfigError,
                       match="^study: reference_h: step 1e-301: n_steps: "):
        convergence_study(scn, [scn.h], 1e-301)
    with pytest.raises(ConfigError,
                       match="^study: reference_h: step 5e-324 does not divide"):
        convergence_study(scn, [scn.h], 5e-324)
    # the default ladder h, h/2, h/4, h/8 names h, which it is made of
    with pytest.raises(ConfigError,
                       match="^study: h: must be finite and nonzero, got 0.0$"):
        convergence_study(replace(scn, h=5e-324, n_steps=4))


def test_convergence_study_defaults():
    scn = replace(builtin_scenario("banana"), n_steps=4)
    h = scn.h
    assert convergence_study(scn) == convergence_study(
        scn, [h, h / 2, h / 4, h / 8], h / 128)


@pytest.fixture
def integrate_calls(monkeypatch):
    """The list of integrate calls a run makes, one None per call."""
    calls, real = [], bdli.experiments.integrate

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(bdli.experiments, "integrate", counting)
    return calls


def test_convergence_study_refuses_out_before_the_first_rung(tmp_path,
                                                             integrate_calls):
    scn = replace(builtin_scenario("banana"), n_steps=4)
    with pytest.raises(ConfigError, match="^out: "):
        convergence_study(scn, out=tmp_path)
    assert integrate_calls == []


def test_convergence_study_writes_its_table_to_out(tmp_path, integrate_calls):
    scn = replace(builtin_scenario("banana"), n_steps=4)
    out = tmp_path / "new" / "study.txt"  # the missing parent is created
    study = convergence_study(scn, out=str(out))
    assert out.read_text() == study.as_text()
    assert len(integrate_calls) == 5  # the four rungs and the reference


def test_loglog_slope_is_nan_when_an_error_is_zero():
    assert math.isnan(ConvergenceStudy("bdli", 0.01, ((0.1, 1e-3), (0.05, 0.0))).slope)
    study = ConvergenceStudy("bdli", 0.01, ((0.1, 1e-2), (0.05, 2.5e-3)))
    assert study.slope == pytest.approx(2.0)


def test_convergence_study_second_order_on_tokamak():
    scn = replace(builtin_scenario("banana"), n_steps=100)  # T = 10 pi
    hs = [scn.h, scn.h / 2, scn.h / 4]
    study = convergence_study(scn, hs, scn.h / 64)
    assert len(study.rows) == 3
    errs = [e for _, e in study.rows]
    assert errs[0] > errs[1] > errs[2]
    assert 1.8 <= study.slope <= 2.2
    assert "slope" in study.as_text()
    (h0, e0), (h1, e1), (h2, e2) = study.rows
    assert study.orders == (math.log(e0 / e1) / math.log(h0 / h1),
                            math.log(e1 / e2) / math.log(h1 / h2))
    assert f"order {h1:.17g} {h2:.17g} = {study.orders[1]:.6f}\n" in study.as_text()


def test_convergence_orders_are_nan_when_an_error_is_zero():
    study = ConvergenceStudy("bdli", 0.01, ((0.1, 1e-3), (0.05, 0.0), (0.025, 0.0)))
    assert all(map(math.isnan, study.orders)) and len(study.orders) == 2


@pytest.mark.parametrize("h_list,reference_h,message", [
    ([True], None, "study: h_list: expected a number, got True"),
    ([math.pi / 10, None], None, "study: h_list: expected a number, got None"),
    (["pi/10"], True, "study: reference_h: expected a number, got True"),
    (["pi/10"], "pi/0", "study: reference_h: division by zero in 'pi/0'"),
], ids=["h-true", "h-none", "reference-true", "reference-pi/0"])
def test_convergence_study_reads_steps_as_a_config_does(h_list, reference_h,
                                                        message, integrate_calls):
    scn = replace(builtin_scenario("banana"), n_steps=4)
    with pytest.raises(ConfigError) as info:
        convergence_study(scn, h_list, reference_h)
    assert str(info.value) == message
    assert integrate_calls == []


def test_convergence_study_takes_step_size_text():
    scn = replace(builtin_scenario("banana"), n_steps=4)
    h = scn.h
    assert convergence_study(scn, ["pi/10", "pi/20"], "pi/320") == convergence_study(
        scn, [h, h / 2], h / 32)


# --- compare_methods ------------------------------------------------------------

def test_compare_needs_two_methods(small_banana):
    with pytest.raises(ConfigError, match="at least two"):
        compare_methods(small_banana, ["bdli"])


@pytest.mark.parametrize("methods,message", [
    (["bdli", "gauss"], "methods: method: unknown method 'gauss'"),
    (["bdli", 5], "methods: method: expected a string, got 5"),
    (["bdli", "dli:w2"], "methods: method: unknown quadrature rule 'w2'"),
])
def test_compare_checks_every_method_before_the_first_run(small_banana, tmp_path,
                                                          methods, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
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
