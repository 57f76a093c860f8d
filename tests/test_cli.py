import errno
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bdli
from bdli.cli import main
from bdli.experiments import SERIES_COLUMNS

HUGE = 10**400  # a 401-digit JSON integer, beyond the float range


def write(tmp_path, doc, name="cfg.json"):
    """A config file of ``doc``, or of the raw bytes ``doc``."""
    p = tmp_path / name
    if isinstance(doc, bytes):
        p.write_bytes(doc)
    else:
        p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def no_integration(monkeypatch):
    """Fail the test if a command reaches an integration."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrated before refusing the input")

    monkeypatch.setattr(bdli.experiments, "integrate", refuse)


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for name in ("drift2d", "banana", "transit"):
        assert name in out
    assert "h=pi/10" in out  # as the builtin's config document writes it


def test_run_builtin_with_flags(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = main(["run", "banana", "--steps", "50", "--out", str(out)])
    assert rc == 0
    assert out.is_file()
    assert (tmp_path / "b.summary.txt").is_file()
    text = capsys.readouterr().out
    assert "max_abs_err_H" in text


def test_run_config_file(tmp_path, capsys):
    cfg = write(tmp_path, {
        "builtin": "banana", "n_steps": 40,
        "output": str(tmp_path / "series.csv"),
    })
    assert main(["run", cfg]) == 0
    assert (tmp_path / "series.csv").is_file()


def test_run_method_override(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["run", "banana", "--steps", "30", "--method", "rk4",
               "--out", str(out)])
    assert rc == 0
    header, first = out.read_text().split("\n")[:2]
    assert first.endswith(",0")  # explicit method reports zero iterations


def test_run_method_flag_runs_the_configs_own_rule(tmp_path, capsys):
    # the config defines w2 and runs boris; the flag picks w2
    cfg = write(tmp_path, {
        "builtin": "banana", "n_steps": 5, "method": "boris",
        "rule": {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]], "degree": 1},
    })
    out = str(tmp_path / "s.csv")
    assert main(["run", cfg, "--method", "dli:w2", "--out", out]) == 0
    assert "method = dli:w2" in capsys.readouterr().out


def test_run_h_and_tol_flags(tmp_path, capsys):
    rc = main(["run", "banana", "--steps", "30", "--h", "pi/20",
               "--tol", "1e-12", "--out", str(tmp_path / "h.csv")])
    assert rc == 0


def test_steps_flag_text_reads_as_the_n_steps_value(tmp_path, capsys):
    # "n_steps": 1e2 runs 100 steps, and so does --steps 1e2
    out = tmp_path / "s.csv"
    assert main(["run", "banana", "--steps", "1e2", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 101
    # null would read as an unset flag, so it stays text
    assert main(["run", "banana", "--steps", "null", "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "config error: n_steps: expected an integer, got 'null'\n")


@pytest.mark.parametrize("tol,error", [
    ("-1", "must be positive and finite, got -1.0"),
    ("0", "must be positive and finite, got 0.0"),
    # the flag's text is read as JSON, which spells these Infinity and NaN
    ("inf", "expected a number, got 'inf'"),
    ("nan", "expected a number, got 'nan'"),
    ("Infinity", "must be positive and finite, got inf"),
], ids=["-1", "0", "inf", "nan", "Infinity"])
def test_tol_flag_out_of_range_exit_2(tmp_path, capsys, tol, error):
    for command in ("run", "convergence", "compare"):
        rc = main([command, "banana", "--steps", "5", "--tol", tol,
                   "--out", str(tmp_path / command)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: solver: tolerance: {error}\n"


def test_unknown_scenario_exit_2(capsys):
    assert main(["run", "spiral"]) == 2
    assert "config error" in capsys.readouterr().err


def test_broken_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["run", str(p)]) == 2


def test_top_level_list_exit_2(tmp_path, capsys):
    cfg = write(tmp_path, [1])
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {cfg}: top-level value must be an object" in \
        capsys.readouterr().err


@pytest.mark.parametrize("key,doc", [
    (None, {"builtin": "banana", "bogus": 1}),
    ("field", {"builtin": "banana", "field": {"name": "tokamak", "bogus": 1}}),
    ("solver", {"builtin": "banana", "solver": {"tolerance": 1e-14, "bogus": 1}}),
    ("rule", {"builtin": "banana", "rule": {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]],
                                            "degree": 1, "bogus": 1}}),
    ("study", {"builtin": "banana", "study": {"h_list": ["pi/10"], "bogus": 1}}),
], ids=["document", "field", "solver", "rule", "study"])
def test_unknown_key_has_one_message_form(tmp_path, capsys, no_integration, key, doc):
    # the document (named by its path) and each object in it refuse a key
    # they do not know in the same words
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key or cfg}: unknown key(s) bogus\n")


def test_unknown_keys_are_listed_sorted(tmp_path, capsys, no_integration):
    cfg = write(tmp_path, {"builtin": "banana",
                           "field": {"name": "tokamak", "zeta": 1, "alpha": 2}})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: field: unknown key(s) alpha, zeta\n"


@pytest.mark.parametrize("key", ["field", "solver", "rule", "study"])
def test_list_for_an_object_exit_2(tmp_path, capsys, no_integration, key):
    cfg = write(tmp_path, {"builtin": "banana", key: [1]})
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {key}: expected an object, got [1]\n")


def test_field_string_is_its_name(tmp_path):
    named = bdli.load_run(write(tmp_path, {"builtin": "banana", "field": "uniform"}))[0]
    assert named == bdli.load_run(
        write(tmp_path, {"builtin": "banana", "field": {"name": "uniform"}}))[0]
    assert named.field == {"name": "uniform", "params": {}}


@pytest.mark.parametrize("doc,key", [
    ({"builtin": "banana", "n_steps": 0}, "n_steps"),
    ({"builtin": "banana", "solver": 3}, "solver"),
    ({"builtin": "banana", "solver": {"predictor": "frozen"}}, "solver"),
    ({"builtin": "banana", "n_steps": "abc"}, "n_steps"),
    ({"builtin": "banana", "stride": "x"}, "stride"),
    ({"builtin": "banana", "mass": "x"}, "mass"),
    ({"builtin": "banana", "mass": -1}, "mass"),
    ({"builtin": "banana", "h": "pi/0"}, "h"),
    ({"builtin": "banana", "x0": [1, "a", 0]}, "x0"),
    ({"builtin": "banana",
      "field": {"name": "tokamak", "params": {"bogus": 1}}}, "field"),
    ({"builtin": "banana",
      "field": {"name": "tokamak", "params": {"safety_factor": 0}}}, "field"),
    ({"builtin": "banana", "x0": [float("nan"), 0, 0]}, "x0"),
    ({"builtin": "banana", "v0": [float("inf"), 0, 0]}, "v0"),
    ({"builtin": "banana", "charge": float("nan")}, "charge"),
    ({"builtin": "banana", "h": HUGE}, "h"),
    ({"builtin": "banana",
      "field": {"name": "tokamak", "params": {"B0": HUGE}}}, "field"),
    ({"builtin": "banana", "rule": {"name": "q2", "pairs": 5}}, "rule"),
    ({"builtin": "banana",
      "rule": {"name": 3, "pairs": [[0, 0.5], [1, 0.5]]}}, "rule"),
    ({"builtin": "banana", "n_steps": 1.5}, "n_steps"),
    ({"builtin": "banana", "n_steps": "5"}, "n_steps"),
    ({"builtin": "banana", "stride": 2.7}, "stride"),
    ({"builtin": "banana", "stride": True}, "stride"),
    ({"builtin": "banana", "solver": {"max_iterations": 1.5}}, "solver"),
    ({"builtin": "banana", "method": "boris", "rule": "simpson"}, "rule"),
    ({"builtin": "banana",
      "rule": {"name": "np", "pairs": [[0, 0.25], [1, 0.75]], "degree": 0}},
     "rule"),
    ({"builtin": "banana", "method": "dli:w2"}, "method"),
    ({"builtin": "banana", "rule": "gauss"}, "rule"),
    ({"builtin": [1]}, "builtin"),
    ({"builtin": "banana",
      "field": {"name": "tokamak", "params": {"B0": True}}}, "field"),
    ({"builtin": "drift2d",
      "field": {"name": "cylindrical_drift", "params": {"epsilon": "0.01"}}},
     "field"),
    ({"builtin": "banana", "field": {"name": "uniform", "params": {"B": "001"}}},
     "field"),
    ({"builtin": "banana",
      "field": {"name": "tokamak", "params": {"B0": float("inf")}}}, "field"),
    ({"builtin": "drift2d",
      "field": {"name": "cylindrical_drift", "params": {"epsilon": float("nan")}}},
     "field"),
    ({"builtin": "banana", "rule": {"name": "w2", "pairs": [["0", 0.5], [True, "0.5"]],
                                    "degree": 1}}, "rule"),
    ({"builtin": "banana", "x0": [HUGE, 0, 0]}, "x0"),
    ({"builtin": "banana", "stride": 0}, "stride"),
    ({"builtin": "banana", "field": {"name": "uniform", "params": [1]}}, "field"),
    ({"builtin": "banana", "field": {"name": "uniform", "extra": 1}}, "field"),
    ({"builtin": "banana", "rule": {"name": "w2", "pairs": [[0, 0.5], [1, 0.5]],
                                    "degree": 1, "extra": 1}}, "rule"),
    ({"builtin": "banana", "rule": {"name": "w2", "degree": 1}}, "rule"),
    ({"builtin": "banana", "solver": {"tolerance": -1}}, "solver"),
    ({"builtin": "banana", "n_steps": 1e19}, "n_steps"),
    (b'{"name": "\xff"}', None),
    (b"[" * 100_000 + b"]" * 100_000, None),
    ({"builtin": "banana", "n_steps": 4, "output": {"a": "/b"}}, "output"),
    ({"builtin": "banana", "n_steps": 4, "output": 7}, "output"),
    ({"builtin": "banana", "n_steps": 4, "name": {"a": "/b"}}, "name"),
    ({"builtin": "banana", "n_steps": 4, "name": "a/b"}, "name"),
    ({"builtin": "banana", "n_steps": 4, "method": 5}, "method"),
    ({"builtin": "banana", "rule": "simpson"}, "rule"),
    (b'{"builtin": "banana", "n_steps": ' + b"1" * 5000 + b"}", None),
], ids=["n_steps-0", "solver-3", "solver-predictor", "n_steps-abc",
        "stride-x", "mass-x", "mass-negative", "h-pi/0", "x0-string",
        "field-unknown-param", "field-safety-factor-0", "x0-nan", "v0-inf",
        "charge-nan", "h-401-digits", "field-B0-401-digits", "rule-pairs-int",
        "rule-name-int", "n_steps-1.5", "n_steps-string", "stride-2.7", "stride-true",
        "solver-max_iterations-1.5", "rule-vs-method-boris",
        "rule-not-palindromic", "method-undefined-rule", "rule-unknown-name",
        "builtin-list", "field-B0-true", "field-epsilon-string", "field-B-string",
        "field-B0-inf", "field-epsilon-nan", "rule-pairs-strings-and-true",
        "x0-401-digits", "stride-0", "field-params-list", "field-extra-key",
        "rule-extra-key", "rule-no-pairs", "solver-tolerance-negative",
        "n_steps-1e19", "file-not-utf8", "file-nested-100000-deep",
        "output-object", "output-int", "name-object", "name-path-separator",
        "method-int", "rule-text", "file-int-5000-digits"])
def test_invalid_scenario_exit_2(tmp_path, monkeypatch, capsys, doc, key):
    # --out keeps a wrongly accepted run's series out of the working directory;
    # a file that does not read as JSON is named by its path (key None)
    monkeypatch.chdir(tmp_path)  # a path made of the name or output lands here
    cfg = write(tmp_path, doc)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {key or cfg}:" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("doc,key", [
    ({"builtin": "banana", "n_steps": 4, "output": "a\0b"}, "output"),
    ({"builtin": "banana", "n_steps": 4, "name": "a\0b"}, "name"),
    ({"builtin": "banana", "n_steps": 4, "output": "a" * 300 + ".csv"}, "output"),
], ids=["output-nul", "name-nul", "output-name-too-long"])
def test_unusable_output_name_exit_2(tmp_path, monkeypatch, capsys, doc, key):
    # without --out, which would replace the document's output: the path
    # the document names is checked before the run, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main(["run", write(tmp_path, doc)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("doc,key", [
    ({"builtin": "banana", "solver": {"tolerance": True}}, "solver: tolerance"),
    ({"builtin": "banana", "mass": True}, "mass"),
    ({"builtin": "banana", "charge": False}, "charge"),
    ({"builtin": "banana", "x0": [True, 0, 0]}, "x0"),
    ({"builtin": "banana", "h": True}, "h"),
    ({"builtin": "banana", "solver": {"tolerance": "1e-12"}}, "solver: tolerance"),
    ({"builtin": "banana", "mass": "2"}, "mass"),
    ({"builtin": "banana", "charge": "1"}, "charge"),
    ({"builtin": "banana", "x0": ["1.05", 0, 0]}, "x0"),
], ids=["tolerance", "mass", "charge", "x0", "h", "tolerance-string",
        "mass-string", "charge-string", "x0-string"])
def test_boolean_for_a_number_exit_2(tmp_path, capsys, doc, key):
    # JSON true is not the number 1, nor is "2" the number 2: both used to
    # run (tolerance true as 1.0, mass "2" as 2.0); only h reads a string
    assert main(["run", write(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {key}: expected a number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", [["--method", "rk4"], ["--rule", "simpson"]])
def test_compare_refuses_method_flags(tmp_path, capsys, flag):
    # compare runs the config's "methods" list; these flags used to be ignored
    with pytest.raises(SystemExit) as exc:
        main(["compare", "banana", "--steps", "5", *flag,
              "--out", str(tmp_path / "cmp")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_run_refuses_the_rule_flag(tmp_path, capsys):
    # --method dli:<rule> names the stepper; a "rule" only defines one
    with pytest.raises(SystemExit) as exc:
        main(["run", "banana", "--steps", "5", "--rule", "simpson",
              "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rule simpson" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["run", "convergence", "compare"])
def test_relative_errors_flag_is_refused(tmp_path, capsys, command):
    # the series holds H, p_xi and mu; a reader derives their errors
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "drift2d", "--steps", "8", "--relative-errors",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --relative-errors" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,key", [
    ({"n_steps": 7}, {"n_steps": 7}),
    ({"h": "pi/20"}, {"h": "pi/20"}),
    ({"tolerance": 1e-10}, {"solver": {"tolerance": 1e-10}}),
    ({"method": "boris"}, {"method": "boris"}),
    ({"output": "o.csv"}, {"output": "o.csv"}),
], ids=["n_steps", "h", "tolerance", "method", "output"])
def test_flag_equals_config_key(tmp_path, flag, key):
    base = write(tmp_path, {"builtin": "banana"}, "base.json")
    keyed = write(tmp_path, {"builtin": "banana", **key}, "keyed.json")
    assert bdli.load_run(base, **flag) == bdli.load_run(keyed)


@pytest.mark.parametrize("flag,key", [
    (["--steps", "0"], {"n_steps": 0}),
    (["--steps", "1.5"], {"n_steps": 1.5}),
    (["--steps", "abc"], {"n_steps": "abc"}),
    (["--h", "pi/0"], {"h": "pi/0"}),
    (["--tol", "-1"], {"solver": {"tolerance": -1}}),
    (["--tol", "x"], {"solver": {"tolerance": "x"}}),
], ids=["n_steps", "n_steps-1.5", "n_steps-abc", "h", "tolerance", "tolerance-x"])
def test_bad_flag_and_config_key_give_one_error(tmp_path, capsys, flag, key):
    out = str(tmp_path / "o")
    assert main(["run", "banana", *flag, "--out", out]) == 2
    from_flag = capsys.readouterr().err
    assert main(["run", write(tmp_path, {"builtin": "banana", **key}),
                 "--out", out]) == 2
    from_key = capsys.readouterr().err
    assert from_flag == from_key
    assert from_key.startswith(f"config error: {next(iter(key))}:")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_h_flag_division_by_zero_exit_2(capsys):
    assert main(["run", "banana", "--h", "pi/0", "--steps", "5"]) == 2
    assert "config error: h:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonconvergence_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, {
        "name": "stiff",
        "field": {"name": "quartic_well", "params": {"strength": 50.0}},
        "x0": [2.0, 0.0, 0.0],
        "v0": [0.0, 0.0, 0.0],
        "h": 1.0,
        "n_steps": 5,
        "method": "bdli",
        "solver": {"max_iterations": 8},
        "output": str(tmp_path / "x.csv"),
    })
    assert main(["run", cfg]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_nonfinite_state_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, {"builtin": "banana", "method": "boris", "h": 1e308,
                           "n_steps": 3, "output": str(tmp_path / "x.csv")})
    assert main(["run", cfg]) == 3
    assert "non-finite state at step 0" in capsys.readouterr().err


def test_failed_run_keeps_partial_series(tmp_path, capsys):
    out = tmp_path / "p3.csv"
    rc = main(["run", "banana", "--method", "boris", "--h", "1e308",
               "--steps", "3", "--out", str(out)])
    assert rc == 3
    assert f"partial series written to {out}" in capsys.readouterr().err
    header, row, end = out.read_text().split("\n")
    assert header == SERIES_COLUMNS
    assert row.startswith("0,1.05,0,0,") and row.endswith(",0")
    assert end == ""


def test_singularity_exit_4(tmp_path, capsys):
    cfg = write(tmp_path, {
        "name": "axis",
        "field": "cylindrical_drift",
        "x0": [0.0, 0.0, 0.0],
        "v0": [0.0, 0.0, 0.0],
        "h": 0.1,
        "n_steps": 3,
        "method": "boris",
        "output": str(tmp_path / "x.csv"),
    })
    assert main(["run", cfg]) == 4
    err = capsys.readouterr().err
    assert "singularity" in err
    # H is undefined at the singular start, so there is no partial series
    assert "partial series" not in err
    assert not (tmp_path / "x.csv").exists()


def test_zero_field_run_writes_nan_mu(tmp_path):
    # mu is undefined where B = 0, but the run itself is valid
    out = tmp_path / "b0.csv"
    cfg = write(tmp_path, {
        "name": "b0",
        "field": {"name": "uniform", "params": {"B": [0, 0, 0]}},
        "x0": [0, 0, 0],
        "v0": [0.1, 0, 0],
        "h": 0.1,
        "n_steps": 3,
        "method": "boris",
    })
    assert main(["run", cfg, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    cols = header.split(",")
    assert len(rows) == 4
    for row in rows:
        fields = dict(zip(cols, row.split(",")))
        assert fields["mu"] == "nan"
        assert fields["H"] == "0.005000000000000001"
    summary = out.with_suffix(".summary.txt").read_text()
    assert "max_abs_err_mu = nan" in summary


def test_convergence_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, {
        "builtin": "banana",
        "n_steps": 100,
        "study": {"h_list": ["pi/10", "pi/20"], "reference_h": "pi/160"},
    })
    out = tmp_path / "study.txt"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "slope" in text
    assert out.read_text() == text
    (order,) = [line for line in text.splitlines() if line.startswith("order ")]
    assert order.startswith(f"order {math.pi / 10:.17g} {math.pi / 20:.17g} = ")


def test_convergence_out_creates_parent_directory(tmp_path, capsys):
    out = tmp_path / "new" / "study.txt"
    assert main(["convergence", "banana", "--steps", "16", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_convergence_default_ladder(capsys):
    assert main(["convergence", "banana", "--steps", "80"]) == 0
    assert "slope" in capsys.readouterr().out


def test_convergence_default_reference_is_finest_step(tmp_path, capsys):
    # backward steps: the default reference is the finest step over 16
    cfg = write(tmp_path, {"builtin": "banana", "h": "-pi/10", "n_steps": 2,
                           "study": {"h_list": ["-pi/10", "-pi/320"]}})
    assert main(["convergence", cfg]) == 0
    assert f"reference_h = {-math.pi / 5120:.17g}" in capsys.readouterr().out


def test_compare_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, {
        "builtin": "banana",
        "n_steps": 60,
        "methods": ["bdli", "boris", "rk4"],
    })
    assert main(["compare", cfg, "--out", str(tmp_path / "cmp")]) == 0
    out = capsys.readouterr().out
    for m in ("bdli", "boris", "rk4"):
        assert m in out
    assert (tmp_path / "cmp" / "banana_compare.txt").is_file()


def test_compare_rejects_single_method(tmp_path):
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 10,
                           "methods": ["bdli"]})
    assert main(["compare", cfg]) == 2


@pytest.mark.parametrize("command,doc,key", [
    ("convergence", {"study": {"h_list": 5}}, "study"),
    ("convergence", {"study": {"h_list": []}}, "study"),
    ("convergence", {"study": {"h_list": [None]}}, "study"),
    ("convergence", {"study": {"reference_h": [1]}}, "study"),
    ("convergence", {"study": [1]}, "study"),
    ("convergence", {"study": None}, "study"),
    ("compare", {"methods": [1, 2]}, "methods"),
    ("compare", {"methods": "bdli"}, "methods"),
    ("compare", {"methods": None}, "methods"),
    ("compare", {"methods": {"bdli": 1, "boris": 2}}, "methods"),
    ("convergence", {"study": {"h_list": [0]}}, "study: h_list"),
    ("convergence", {"study": {"reference_h": 0}}, "study: reference_h"),
    ("convergence", {"study": {"h_list": ["pi/3", 1]}}, "study: h_list"),
    ("compare", {"methods": ["bdli"]}, "methods"),
    ("compare", {"methods": ["bdli", "gauss"]}, "methods"),
    ("compare", {"methods": ["bdli", "boris", "bdli"]}, "methods"),
    ("convergence", {"h": 1e308}, "study"),
    ("convergence", {"study": {"h_list": [1e-300], "reference_h": 1e-301}},
     "study: h_list"),
    ("convergence", {"study": {"h_list": ["pi/10"], "reference_h": 5e-324}},
     "study: reference_h"),
    ("convergence", {"study": {"h_list": [float("nan"), "pi/10"]}}, "study: h_list"),
    # the default ladder h, h/2, h/4, h/8 underflows to 0: its error names h
    ("convergence", {"h": 5e-324, "n_steps": 4}, "study: h"),
    # run reads the same document, so it refuses the same shapes
    ("run", {"study": [1]}, "study"),
    ("run", {"study": None}, "study"),
    ("run", {"study": {"h_list": 5}}, "study"),
    ("run", {"methods": "bdli"}, "methods"),
    ("run", {"methods": [1, 2]}, "methods"),
    ("run", {"study": {"bogus": 1}}, "study"),
], ids=["h_list-int", "h_list-empty", "h_list-null", "reference_h-list",
        "study-list", "study-null", "methods-ints", "methods-string",
        "methods-null", "methods-object", "h_list-zero", "reference_h-zero",
        "h_list-not-dividing", "methods-one", "methods-unknown",
        "methods-repeated", "total-time-inf", "rung-beyond-maxsize",
        "reference_h-overflows", "h_list-nan", "default-ladder-underflows",
        "run-study-list", "run-study-null", "run-h_list-int",
        "run-methods-string", "run-methods-ints", "run-study-unknown-key"])
def test_malformed_study_or_methods_exit_2(tmp_path, capsys, command, doc, key):
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 16, **doc})
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "convergence"])
def test_null_reference_h_exit_2(tmp_path, capsys, no_integration, command):
    # null is no step, not the default reference, and run reads the same study
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 16,
                           "study": {"reference_h": None}})
    assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: study: reference_h: expected a number, got None\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,key", [("run", "output"), ("convergence", "out")],
                         ids=["run", "convergence"])
def test_out_directory_refused_before_integrating(tmp_path, capsys, no_integration,
                                                  command, key):
    # run and convergence write one file to --out; compare writes a directory;
    # run checks the scenario's output path, which --out sets
    assert main([command, "banana", "--steps", "16", "--out", str(tmp_path)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_convergence_reports_a_bad_study_before_a_bad_out(tmp_path, capsys,
                                                          no_integration):
    # convergence_study checks its ladder first, then the table path
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 16,
                           "study": {"h_list": [0]}})
    assert main(["convergence", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: study: h_list:" in capsys.readouterr().err


def test_compare_out_file_refused(tmp_path, capsys):
    # compare writes a directory of files to --out
    (tmp_path / "f").write_text("keep")
    assert main(["compare", "banana", "--steps", "16",
                 "--out", str(tmp_path / "f")]) == 2
    assert "config error: out_dir:" in capsys.readouterr().err
    assert (tmp_path / "f").read_text() == "keep"


@pytest.mark.parametrize("argv,make,key", [
    (["run", "x.json"], "x_series.csv/", "output"),
    (["compare", "banana", "--steps", "400", "--out", "d"],
     "d/banana_boris_series.csv/", "out_dir"),
    (["run", "banana", "--steps", "4", "--out", "f/x.csv"], "f", "output"),
    (["convergence", "banana", "--steps", "4", "--out", "f/x.csv"], "f", "out"),
    (["compare", "banana", "--steps", "4", "--out", "f/d"], "f", "out_dir"),
], ids=["run-default-series-is-directory", "compare-method-series-is-directory",
        "run-parent-is-file", "convergence-parent-is-file", "compare-parent-is-file"])
def test_unwritable_output_path_exit_2_before_integrating(
        tmp_path, capsys, monkeypatch, no_integration, argv, make, key):
    # a directory where a series goes (make ends in "/"), or a file where a
    # directory must be created; each used to exit 1, some after the run
    monkeypatch.chdir(tmp_path)
    write(tmp_path, {"builtin": "banana", "n_steps": 4000, "name": "x"}, "x.json")
    if make.endswith("/"):
        (tmp_path / make).mkdir(parents=True)
    else:
        (tmp_path / make).write_text("keep")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no series, no directory


def test_output_key_directory_refused(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 16,
                           "output": str(tmp_path / "d")})
    assert main(["run", cfg]) == 2
    assert "config error: output:" in capsys.readouterr().err


def _needs(device):
    return pytest.mark.skipif(not Path(device).exists(), reason=f"no {device}")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "banana", "--steps", "4", "--out", "/dev/full"],
                 "config error: output: cannot write '/dev/full': "
                 "No space left on device\n", marks=_needs("/dev/full"), id="run-series"),
    pytest.param(["convergence", "banana", "--steps", "8", "--out", "/dev/full"],
                 "config error: out: cannot write '/dev/full': ",
                 marks=_needs("/dev/full"), id="convergence-table"),
    pytest.param(["run", "x" * 300, "--steps", "4"], f"config error: {'x' * 300}: ",
                 id="source-name-too-long"),
    pytest.param(["run", "/proc/self/mem", "--steps", "4"],
                 "config error: /proc/self/mem: ", marks=_needs("/proc/self/mem"),
                 id="source-unreadable"),
])
def test_file_failure_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # a file that cannot be read or written is a config error naming the key
    # and the path; each of these used to exit 1 with a traceback
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv,path,key", [
    (["run", "banana", "--steps", "4", "--out", "s.csv"], "s.summary.txt", "output"),
    (["compare", "banana", "--steps", "4", "--out", "cmp"], "cmp/banana_compare.txt",
     "out_dir"),
    (["compare", "banana", "--steps", "4", "--out", "cmp"],
     "cmp/banana_boris_series.summary.txt", "out_dir"),
    (["run", "banana", "--steps", "4", "--out", "s.csv"], "s.csv", "output"),
    (["compare", "banana", "--steps", "4", "--out", "cmp"],
     "cmp/banana_bdli_series.csv", "out_dir"),
], ids=["run-summary", "compare-table", "compare-summary", "run-series",
        "compare-series"])
def test_failed_text_write_exit_2(tmp_path, monkeypatch, capsys, argv, path, key):
    # a write fails under the key its path was checked under: compare checks
    # every method's series and summary path as out_dir before the runs
    open_ = Path.open  # write_text opens through it too

    def full(self, *args, **kwargs):  # a full disk under this one file
        if self == Path(path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open_(self, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Path, "open", full)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: {key}: cannot write {path!r}: No space left on device\n")


@_needs("/dev/full")
def test_unwritable_partial_series_keeps_exit_3(tmp_path, capsys):
    # the run fails at step 0; its partial series cannot be written, which
    # used to end the run with a traceback (exit 1)
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 2000, "h": 1e308,
                           "output": "/dev/full"})
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "partial series" not in err


@pytest.mark.parametrize("doc,method,code", [
    ({"x0": [0, 0, 0], "v0": [0.1, 0, 0], "methods": ["boris", "rk4"]}, "boris", 4),
    ({"solver": {"max_iterations": 1}, "methods": ["bdli", "boris"]}, "bdli", 3),
], ids=["on-axis-start", "non-convergence"])
def test_commands_agree_on_exit_codes(tmp_path, capsys, doc, method, code):
    # compare runs its first method as run --method does, so it fails alike
    cfg = write(tmp_path, {"builtin": "banana", "n_steps": 4, **doc})
    assert main(["run", cfg, "--method", method,
                 "--out", str(tmp_path / "run" / "s.csv")]) == code
    assert main(["compare", cfg, "--out", str(tmp_path / "cmp")]) == code
    assert "config error" not in capsys.readouterr().err


_METHODS = ["bdli", "boris", "rk4", "dli:simpson", "dli:trapezoid", "dli:w2"]
_BAD = st.sampled_from([None, True, "x", "pi/0", "gauss", [1], {"a": 1}, math.nan,
                        math.inf, -1, 0])


@st.composite
def _cli_cases(draw):
    """``(command, document, flags)`` on a builtin whose every integration is
    short: at most 8 config steps, and study steps that are the run's step
    over 1 to 64 (128 for the default ladder's reference), so no ladder
    count reaches 1e5 and no list is large."""
    command = draw(st.sampled_from(["run", "convergence", "compare"]))
    doc = {"builtin": draw(st.sampled_from(bdli.BUILTIN_SCENARIOS)),  # not 5e4
           "n_steps": draw(st.integers(1, 8) | st.just(4.0))}
    small = st.floats(-0.5, 0.5)
    optional = {  # mostly good values; _BAD replaces at most one key below
        "h": (st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)
              | st.sampled_from(["pi/10", 1e300, 1e308])),
        "x0": st.tuples(st.floats(0.05, 1.5), small, small).map(list),  # off-axis
        "v0": st.lists(small, min_size=3, max_size=3),
        "mass": st.floats(0.1, 2.0),
        "charge": st.floats(-2.0, 2.0),
        "stride": st.integers(1, 3),
        "method": st.sampled_from(_METHODS),
        "rule": st.just({"name": "w2", "pairs": [[0, 0.5], [1, 0.5]], "degree": 1}),
        "solver": st.fixed_dictionaries({}, optional={
            "tolerance": st.sampled_from([1e-14, 1e-300, 1e-3, 0, "x"]),
            "max_iterations": st.sampled_from([1, 2, 50, 0, 1.5])}),
        "field": st.sampled_from([
            "tokamak", "cylindrical_drift", "quartic_well",
            {"name": "uniform", "params": {"B": [0, 0, 1], "E": [0.1, 0, 0]}},
            {"name": "uniform", "params": {"B": [0, 0, 0]}},
            {"name": "tokamak", "params": {"safety_factor": 0}}]),
        "methods": st.lists(st.sampled_from(_METHODS), max_size=4, unique=True),
    }
    keys = draw(st.lists(st.sampled_from(sorted(optional)), max_size=4, unique=True))
    doc.update({k: draw(optional[k]) for k in keys})
    bad = draw(st.none() | st.sampled_from(["n_steps", *sorted(optional)]))
    if bad is not None:
        doc[bad] = draw(_BAD)
    h = doc.get("h", "pi/10")
    h = math.pi / 10 if h == "pi/10" else h
    if draw(st.booleans()) and isinstance(h, float) and math.isfinite(h):
        doc["study"] = draw(st.fixed_dictionaries({}, optional={
            "h_list": st.lists(st.integers(1, 16).map(lambda k: h / k)
                               | st.sampled_from([h * 0.37, 3 * h]) | _BAD,
                               min_size=1, max_size=3) | _BAD,
            "reference_h": st.integers(32, 64).map(lambda k: h / k) | _BAD}))
    offered = [["--steps", "3"], ["--steps", "0"], ["--steps", "1.5"], ["--tol", "1e-13"],
               ["--tol", "0"], ["--tol", "1e-300"], ["--tol", "inf"]]
    flags = draw(st.lists(st.sampled_from(offered), max_size=2))
    if command != "compare":
        flags += draw(st.lists(st.sampled_from(
            [["--method", "boris"], ["--method", "gauss"], ["--method", "dli:simpson"]]),
            max_size=1))
    return command, doc, [a for f in flags for a in f]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cli_cases())
@example(case=("run", {"builtin": "banana", "n_steps": 1e19}, []))
@example(case=("convergence", {"builtin": "banana", "n_steps": 4, "h": 1e308}, []))
@example(case=("convergence", {"builtin": "banana", "n_steps": 4, "study": {
    "h_list": [1e-300], "reference_h": 1e-301}}, []))
@example(case=("convergence", {"builtin": "banana", "n_steps": 4, "study": {
    "h_list": ["pi/10"], "reference_h": 5e-324}}, []))
@example(case=("run", {"builtin": "banana", "n_steps": 3, "h": 1e308,
                       "method": "boris"}, []))
@example(case=("run", {"builtin": "banana", "n_steps": 2, "output": 5}, []))
@example(case=("run", {"builtin": "banana", "n_steps": 10**12, "h": 1e308}, []))
def test_cli_exits_with_a_documented_code(tmp_path, monkeypatch, case):
    """Whatever the document, a command ends with 0, 2, 3 or 4 and no
    traceback; a failed run leaves its partial series."""
    command, doc, flags = case
    monkeypatch.chdir(tmp_path)  # a default output path lands here too
    d = Path(tempfile.mkdtemp(dir=tmp_path))
    out = d / {"run": "s.csv", "convergence": "study.txt", "compare": "cmp"}[command]
    rc = main([command, write(d, doc), *flags, "--out", str(out)])
    assert rc in (0, 2, 3, 4)
    if command == "run" and rc in (3, 4):
        assert out.is_file()


# The library imports no numpy: with the import blocked before bdli.cli is
# imported, each command still runs.
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from bdli.cli import main
for argv in (["run", "banana", "--steps", "20", "--out", "run/s.csv"],
             ["convergence", "drift2d", "--steps", "4"],
             ["compare", "banana", "--steps", "20", "--out", "cmp"]):
    assert main(argv) == 0, argv
"""


def test_cli_runs_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bdli.__file__).parents[1]))
    blocked = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
    assert blocked.returncode == 0, blocked.stderr
    assert (tmp_path / "cmp" / "banana_compare.txt").is_file()
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, bdli, bdli.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert loaded.stdout.strip() == "False", loaded.stderr
