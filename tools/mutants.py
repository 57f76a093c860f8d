"""Mutation probe: how many one-token changes of a function its tests notice.

A mutant changes one token of one function in scope: ``+``/``-`` and
``*``/``/`` swapped (in ``+=`` and the like too), ``<``/``<=``,
``>``/``>=`` and ``==``/``!=`` swapped, or a float constant c written as
c + 1.  Each mutant is written into a copy of ``src/`` in a temporary
directory, and the function's test files run against that copy with
``pytest -x``.  A failing run kills the mutant, and so does a run past the
time limit: a mutant that makes a test loop, or makes hypothesis shrink
for minutes, has changed what the code does.

    python3 tools/mutants.py [--out MUTANTS.json]

The result goes to ``--out``: per function the mutant count, the killed
count and the run time, and each survivor with its line, its text and the
mutated text.  A survivor's one-line reason it is equivalent, or the test
that now kills it, is written into the record by hand.  This is not a
tier-1 test: a full run takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120.0  # s per mutant; a run past it kills the mutant

# module -> (functions, the test files that exercise them)
SCOPE = {
    "src/bdli/hamiltonian.py": (
        ("energies", "toroidal_momenta", "magnetic_moments", "quantity_series"),
        ("tests/test_hamiltonian.py", "tests/test_output_digests.py"),
    ),
}

SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}


def _gap(node_a, node_b):
    """(line, col) of the end of ``node_a`` and of the start of ``node_b``:
    the source between two operands, which holds their operator."""
    return (node_a.end_lineno, node_a.end_col_offset), (node_b.lineno, node_b.col_offset)


def sites(source: str, tree: ast.Module, name: str):
    """Each mutation site of function ``name``, in source order, as
    ``(start, end, old, new)``: positions (line, col) of the source span
    that holds the token ``old``, and its replacement ``new``."""
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((*_gap(node.left, node.right), *SWAPS[type(node.op)]))
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            found.append((*_gap(node.target, node.value), old + "=", new + "="))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in SWAPS:
                    found.append((*_gap(left, right), *SWAPS[type(op)]))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(((node.lineno, node.col_offset),
                          (node.end_lineno, node.end_col_offset),
                          ast.get_source_segment(source, node), repr(node.value + 1.0)))
    return sorted(found)


def mutate(source: str, site) -> tuple[str, int]:
    """``source`` with one site changed, and the line of the change."""
    (l0, c0), (l1, c1), old, new = site
    raw = source.encode()  # ast columns count UTF-8 bytes
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    a, b = starts[l0 - 1] + c0, starts[l1 - 1] + c1
    span = raw[a:b].decode()
    # a constant's span is its literal; an operator's is the source between
    # its operands, which holds only the operator, brackets and blanks
    if not re.fullmatch(r"[\s()\\]*" + re.escape(old) + r"[\s()\\]*", span):
        raise ValueError(f"line {l0}: no single {old!r} in {span!r}")
    line = l0 + span[:span.index(old)].count("\n")
    return (raw[:a] + span.replace(old, new, 1).encode() + raw[b:]).decode(), line


def run_tests(src_dir: Path, tests) -> str | None:
    """The first failing test id, "timeout", "error", or None if all pass."""
    env = {**os.environ, "PYTHONPATH": str(src_dir), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
           *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        return None
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else "error"


def probe() -> dict:
    functions = {}
    with tempfile.TemporaryDirectory() as tmp:
        src_dir = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src_dir,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for _, ts in SCOPE.values() for t in ts})
        if run_tests(src_dir, every_test) is not None:
            raise SystemExit("the unmutated tests fail; nothing to measure")
        for module, (names, tests) in SCOPE.items():
            source = (ROOT / module).read_text()
            target = src_dir / Path(module).relative_to("src")
            tree = ast.parse(source)
            lines = source.splitlines()
            for name in names:
                entry = {"module": module, "tests": list(tests), "mutants": 0,
                         "killed": 0, "seconds": 0.0, "survivors": []}
                for site in sites(source, tree, name):
                    mutated, line = mutate(source, site)
                    (l0, c0), _, old, new = site
                    mutant = {"id": f"{name}:{l0}:{c0}: {old} -> {new}",
                              "line": line, "text": lines[line - 1].strip(),
                              "mutant": mutated.splitlines()[line - 1].strip()}
                    target.write_text(mutated)
                    t0 = time.perf_counter()
                    killer = run_tests(src_dir, tests)
                    entry["seconds"] += time.perf_counter() - t0
                    entry["mutants"] += 1
                    print(f"{mutant['id']}  {mutant['mutant']}\n"
                          f"    {f'killed by {killer}' if killer else 'SURVIVED'}",
                          flush=True)
                    if killer is None:
                        entry["survivors"].append(mutant)
                    else:
                        entry["killed"] += 1
                target.write_text(source)
                entry["seconds"] = round(entry["seconds"], 1)
                functions[name] = entry
    return functions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(ROOT / "MUTANTS.json"))
    out = Path(ap.parse_args(argv).out)
    t0 = time.perf_counter()
    functions = probe()
    record = {
        "python": sys.version.split()[0],
        "seconds": round(time.perf_counter() - t0, 1),
        "functions": functions,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    survivors = sum(len(f["survivors"]) for f in functions.values())
    print(f"{sum(f['mutants'] for f in functions.values())} mutants, "
          f"{survivors} survived, {record['seconds']} s; written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
