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
        "cc9e43295d0bcd64e016f598e50466d189b649c1a9c0461ed08bfdab5b5210bb",
        "c87172445e25a37db8223110317630a4bdc93fe97f8c267c96df851a29cfdd82"),
    "transit": (
        ["transit"],
        "5f8500a0fffcf4aeb8d212160ba84f62780d0189af22163406ae797f14db8bdb",
        "25f9f3983eb61edf99e947e68bd72f55e4660081bb5704fb138107503238ea81"),
    "drift2d": (
        ["drift2d"],
        "5e156d3d0aab799163c813840ab661580886eeaa0c79e647110c8cb04a809c8d",
        "eb6a779a8221d31cadd85e8b6c748dda02012fd11636f051d47d684cee0301bb"),
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
        "b359d53ca919da4d5b45436deeee89448b3aec73833b32a9f8ada34a2709e7a6",
        "c87172445e25a37db8223110317630a4bdc93fe97f8c267c96df851a29cfdd82"),
    # a config with stride 7, which does not divide 2000: the summary's
    # final_abs_err_* come from the last emitted row, not the last state
    "banana-stride-7": (
        None,
        "d2daa62f67e15858847692d4b84a02b230cd4421a2bdfb35fed4a44f83c4b31c",
        "64e40739aa76924d12047832d5c04fafde3b31316b046180d9378f0e9f213fbf"),
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
