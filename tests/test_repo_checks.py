"""Checks on what the repository ships next to the library: the README's
library example and configs, the benchmark's self-test, the mutation
probe's record and the library's imports."""

import ast
import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                          flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert 0.0 <= float(out.getvalue()) <= 1e-12  # max |dH| of the banana run


def test_readme_config_examples_load(tmp_path):
    """Every JSON config in the README loads as a scenario, and through the
    CLI's loader also with its ``study`` and ``methods`` keys."""
    from bdli import load_config, load_run

    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        assert load_run(str(path))[0] == load_config(path)


def test_perfbench_selftest_passes():
    """The benchmark hooks names in the library (``cli.run_scenario``,
    ``experiments.quantity_series``, ``PhaseState`` and more); a change that
    unbinds one fails here.  The self-test writes only below .bench_work/."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("0 failure(s)")


def test_src_has_no_unused_imports():
    """Every name a library module imports is used in it; ``__init__.py``
    is skipped, since it imports names to re-export them."""
    unused = []
    for path in sorted((ROOT / "src" / "bdli").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:  # "import a.b" binds a
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def _call_sites(name: str, paths) -> list[str]:
    """``<module>.<innermost scope>`` of each call of ``name`` in ``paths``."""
    sites = []
    for path in paths:
        tree = ast.parse(path.read_text())
        scopes = [n for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and name in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                # ast.walk is breadth-first, so the innermost scope comes last
                inner = [f.name for f in scopes
                         if f.lineno <= call.lineno <= f.end_lineno]
                sites.append(f"{path.stem}.{(inner or ['<module>'])[-1]}")
    return sites


def test_method_text_is_read_in_one_place():
    """The library calls ``resolve_method`` once, in ``Scenario``'s
    ``__post_init__``; a run passes on the stepper the scenario holds."""
    paths = sorted((ROOT / "src" / "bdli").glob("*.py"))
    assert _call_sites("resolve_method", paths) == ["experiments.__post_init__"]


def test_each_scenario_spec_is_read_in_one_place():
    """``experiments`` builds the field, an inline rule and the solver
    options once each, in ``Scenario.__post_init__``: a config and a direct
    call pass their ``field``, ``rule`` and ``solver`` to it as given."""
    path = ROOT / "src" / "bdli" / "experiments.py"
    for name in ("make_field", "_inline_rule", "SolverOptions"):
        assert _call_sites(name, [path]) == ["experiments.__post_init__"], name


def test_readme_module_table_names_every_library_module():
    """README's layout table has one ``bdli.<module>`` row for each module
    under ``src/bdli``, and no row for a module that is gone."""
    rows = re.findall(r"^\| `bdli\.(\w+)`", (ROOT / "README.md").read_text(),
                      flags=re.M)
    modules = [p.stem for p in (ROOT / "src" / "bdli").glob("*.py")
               if p.name != "__init__.py"]
    assert sorted(rows) == sorted(modules)


SUITES = ("acceptance", "oracles", "output_digests", "repo_checks")


def test_test_files_name_a_library_module_or_a_suite():
    """Each ``tests/test_<m>.py`` tests the module ``bdli.<m>`` or is one of
    the listed suites, so a test file cannot outlive the module it names."""
    modules = {p.stem for p in (ROOT / "src" / "bdli").glob("*.py")
               if p.name != "__init__.py"}
    stray = [p.name for p in (ROOT / "tests").glob("test_*.py")
             if p.stem.removeprefix("test_") not in modules | set(SUITES)]
    assert stray == []


LAYERS = ("fields", "quadrature", "hamiltonian", "integrators", "experiments",
          "cli")


def test_src_modules_import_only_earlier_layers():
    """Each library module imports only modules before it in ``LAYERS``:
    the rules in ``quadrature`` know nothing of the step in ``integrators``
    that reads them.  A new module must be given its place."""
    paths = {p.stem: p for p in (ROOT / "src" / "bdli").glob("*.py")
             if p.name != "__init__.py"}
    assert sorted(paths) == sorted(LAYERS)
    wrong = []
    for rank, name in enumerate(LAYERS):
        for node in ast.walk(ast.parse(paths[name].read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):  # from .x, from . import x
                names = [f"bdli.{m}" for m in
                         ([node.module] if node.module else [a.name for a in node.names])]
            else:
                continue
            targets = [n.split(".")[1] for n in names if n.startswith("bdli.")]
            wrong += [f"{name} imports {t}" for t in targets
                      if t not in LAYERS[:rank]]
    assert not wrong, wrong


def test_cli_commands_leave_errors_to_main():
    """No code in ``cli.py`` outside ``main`` catches an exception: the
    library raises each error where it finds it, and ``main`` alone maps
    errors to exit codes, so one failure exits with the same code under
    every command (a catch-all ``except ValueError`` once turned
    ``compare``'s field singularity, exit 4 under ``run``, into a config
    error, exit 2)."""
    tree = ast.parse((ROOT / "src" / "bdli" / "cli.py").read_text())
    (main,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    in_main = [node for node in ast.walk(main) if isinstance(node, ast.Try)]
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Try) and node not in in_main]
    assert in_main and not found, found


def test_every_library_error_has_an_exit_code():
    """Each exception class that a module in ``src/bdli`` defines is one
    that ``cli.main`` maps to an exit code (or a subclass of one), or their
    base ``IntegrationError``: so every error the library raises exits 2, 3
    or 4 under the CLI, never with a traceback."""
    import bdli.cli as cli
    from bdli.integrators import IntegrationError

    tree = ast.parse((ROOT / "src" / "bdli" / "cli.py").read_text())
    (main,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    caught = [node.type for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    mapped = tuple(getattr(cli, name.id) for node in caught
                   for name in (node.elts if isinstance(node, ast.Tuple) else [node]))
    assert mapped
    unmapped = []
    for path in sorted((ROOT / "src" / "bdli").glob("[!_]*.py")):  # not __init__
        mod = importlib.import_module(f"bdli.{path.stem}")
        unmapped += [f"{path.name}: {obj.__name__}" for obj in vars(mod).values()
                     if isinstance(obj, type) and issubclass(obj, BaseException)
                     and obj.__module__ == mod.__name__
                     and obj is not IntegrationError and not issubclass(obj, mapped)]
    assert unmapped == []


def test_step_path_calls_no_builtin_reduction():
    """The step kernels ``dli_step``, ``boris_step`` and ``rk4_step`` and the
    step loop of ``integrate`` run once per step, so each builtin reduction
    there costs a measurable share of a step (the stop scale's
    ``max(map(abs, z0))`` alone ~0.45 us, on steps of ~5-9 us with CPython
    3.11 on a 2-vCPU Xeon).  They use compare chains, inlined
    stages and chained ``isfinite`` tests instead; these keep the same
    results, so the state and solver digests cannot see a reduction that
    comes back, and this check does."""
    banned = {"max", "min", "all", "any", "map", "sum"}
    path = ROOT / "src" / "bdli" / "integrators.py"
    funcs = {node.name: node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef)}
    roots = {name: funcs[name] for name in ("dli_step", "boris_step", "rk4_step")}
    (roots["integrate"],) = [node for node in funcs["integrate"].body
                             if isinstance(node, ast.For)]
    found = [f"{where}:{node.lineno}: {node.func.id}"
             for where, root in roots.items()
             for node in ast.walk(root)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in banned]
    assert not found, found


def _owners(tree) -> dict:
    """The name of the innermost ``def`` around each node of ``tree``."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                owner[node] = func.name  # walked after it, an inner def wins
    return owner


def test_experiments_names_config_errors_in_one_place():
    """In ``experiments.py`` a caught error becomes a ``ConfigError`` only in
    ``_named`` (which names the key of any bad value or failed file
    operation) and in the handlers that write their own message:
    ``parse_step_size`` and ``_load_document``'s JSON errors."""
    allowed = {"_named", "parse_step_size", "_load_document"}
    tree = ast.parse((ROOT / "src" / "bdli" / "experiments.py").read_text())
    owner = _owners(tree)
    found = [f"{owner.get(handler, '<module>')}:{handler.lineno}"
             for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
             for node in ast.walk(handler)
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "ConfigError"
             and owner.get(handler) not in allowed]
    assert not found, found


def _src_calls(accepts) -> list[tuple[str, str, int]]:
    """``(module, function, line)`` of every ``ast.Call`` in ``src/bdli`` that
    ``accepts``; the function is the innermost ``def`` around the call, or
    ``<module>``."""
    found = []
    for path in sorted((ROOT / "src" / "bdli").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found += [(path.name, owner.get(node, "<module>"), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and accepts(node)]
    return found


def test_only_the_value_rules_test_for_a_bool():
    """What counts as a number or a count is decided once, by ``as_real``
    and ``as_count`` in ``fields.py`` (``as_vec3`` reads its components with
    ``as_real``): no other function names ``bool`` inside an ``isinstance``
    call."""
    found = _src_calls(lambda call: getattr(call.func, "id", None) == "isinstance"
                       and any(getattr(n, "id", None) == "bool"
                               for arg in call.args[1:] for n in ast.walk(arg)))
    allowed = {("fields.py", "as_real"), ("fields.py", "as_count")}
    assert [f for f in found if f[:2] not in allowed] == []


def test_only_the_number_rules_call_float():
    """A value becomes a float in ``as_real`` (a number) and in
    ``parse_step_size`` (a step size, which may be text) and nowhere else in
    the library, so no other function has a number rule of its own;
    ``map(float, v)`` counts as a call."""
    def converts(call):
        f = getattr(call.func, "id", None)
        first = [getattr(arg, "id", None) for arg in call.args[:1]]
        return f == "float" or f == "map" and first == ["float"]

    allowed = {("fields.py", "as_real"), ("experiments.py", "parse_step_size")}
    assert [f for f in _src_calls(converts) if f[:2] not in allowed] == []


def test_cli_imports_no_private_experiments_name():
    """The drivers check and write their own output paths, so ``cli.py``
    needs no private helper of ``experiments``; ``_BUILTIN_DOCS`` is the
    one exception, since ``list-builtins`` prints a builtin's step as its
    document writes it (``h=pi/10``)."""
    tree = ast.parse((ROOT / "src" / "bdli" / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               and node.module == "experiments"
               for alias in node.names if alias.name.startswith("_")]
    assert private == ["_BUILTIN_DOCS"]


def test_mutants_json_records_the_probe_scope():
    """``MUTANTS.json`` is a run of ``tools/mutants.py`` over its whole
    scope on the current source: one entry per function in ``SCOPE``, as
    many mutants as the function has sites today, and each mutant counted
    once, as killed or as a survivor."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    record = json.loads((ROOT / "MUTANTS.json").read_text())["functions"]
    assert set(record) == {f for names, _ in mutants.SCOPE.values() for f in names}
    for module, (names, _) in mutants.SCOPE.items():
        source = (ROOT / module).read_text()
        tree = ast.parse(source)
        for name in names:
            entry = record[name]
            assert entry["mutants"] == len(mutants.sites(source, tree, name)), name
            assert entry["killed"] + len(entry["survivors"]) == entry["mutants"]
