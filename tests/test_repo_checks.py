"""Checks on what the repository ships next to the library: the README's
library example and the benchmark's self-test."""

import contextlib
import io
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


def test_perfbench_selftest_passes():
    """The benchmark hooks names in the library (``cli.run_scenario``,
    ``experiments.quantity_series``, ``PhaseState`` and more); a change that
    unbinds one fails here.  The self-test writes only below .bench_work/."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("0 failure(s)")
