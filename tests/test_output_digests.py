"""Pinned bytes of the series and summary files of short CLI runs.

Each case is ``bdli run ... --steps 2000``; the digests are sha256 of the
series file and of the summary file.  A refactor of the diagnostics or
the writers must leave both unchanged.

The digests assume the host's libm: p_xi goes through ``math.log`` (the
tokamak ``a_at``), just as the states go through ``math.sqrt`` in the
digests of ``test_integrators.test_step_kernels_bitwise_pinned``.
"""

import hashlib
import json

import pytest

from bdli.cli import main

# case: (arguments after "run", series sha256, summary sha256)
PINNED = {
    "banana": (
        ["banana"],
        "a5b0fd9b7703b7a531bb13b805b909a2a7155bbe9eb1338e681b7125a7a31ad3",
        "a8cc426598e57685220c8fe059b59efc787af6010db337002a7de8e43f77d9c7"),
    "transit": (
        ["transit"],
        "7ac680e9cb2285be3808f69f54df5703f9d5e6fabf5605ce3e2aefc384f9083f",
        "458ce58f2548de17c9e673dfe0f632ff2f9eb514b9b857cb658aa1d3e05e2f5e"),
    "drift2d": (
        ["drift2d"],
        "da4c57012c3024dbca7d354ad42759dbf3f1727c8ee0187b7986b9e2724c2667",
        "031e89a17c02da955b707696e1c7118a5161719f63cd7205875f378d1f06f27d"),
    "banana-boris": (
        ["banana", "--method", "boris"],
        "312c0c43228e8a492fa058cfa3512436a8a84ccd1e2eb255c6c2edda451ca0f0",
        "c0a6e10049d90961c328c4c9f5a26dced9f8f6eeb8e5845c24b2c0df318254ec"),
    "banana-rk4": (
        ["banana", "--method", "rk4"],
        "60a4ee9289eb6cc74d5ba3c26ba862a32e55cc37d0bbe2d8d5429ea7997e6490",
        "f80197014fe35d28b632ec2022715b786f4842e481ddff1592bb26877bad9487"),
    # the summary errors stay absolute: the same summary as "banana"
    "banana-relative-errors": (
        ["banana", "--relative-errors"],
        "910554c5dfaeaeed30dbc10ac81413fac902a4f7f31e5376f3ac70f3d9fb59d3",
        "a8cc426598e57685220c8fe059b59efc787af6010db337002a7de8e43f77d9c7"),
    # a config with stride 7, which does not divide 2000: the summary's
    # final_abs_err_* come from the last emitted row, not the last state
    "banana-stride-7": (
        None,
        "fa177a879c7f01f1f9bf44ab1066a342d84b331d97b3efd2ec96c373cb89fc95",
        "86c3e32423e7890ee77105026ce5a63029bdc6ebed6e9510de996141e4782d6d"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_series_and_summary_bytes_pinned(tmp_path, case):
    args, series, summary = PINNED[case]
    if args is None:
        cfg = tmp_path / "stride.json"
        cfg.write_text(json.dumps({"builtin": "banana", "stride": 7}))
        args = [str(cfg)]
    out = tmp_path / "s.csv"
    assert main(["run", *args, "--steps", "2000", "--out", str(out)]) == 0
    assert _sha256(out) == series
    assert _sha256(out.with_suffix(".summary.txt")) == summary
