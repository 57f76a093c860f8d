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
        "7cc642e6d4e7ed2dcc86f85413916448d964118b3e4494fda43697cc2a545ec8",
        "c87172445e25a37db8223110317630a4bdc93fe97f8c267c96df851a29cfdd82"),
    "transit": (
        ["transit"],
        "0afc33d9e5581435bbcf2fe3be0f229c24d0d53647ababa06613393f62610e2b",
        "25f9f3983eb61edf99e947e68bd72f55e4660081bb5704fb138107503238ea81"),
    "drift2d": (
        ["drift2d"],
        "a606173bebff9846b3438c5ae2c0dea0c23c175a22f575289ac4cd360f4371b6",
        "eb6a779a8221d31cadd85e8b6c748dda02012fd11636f051d47d684cee0301bb"),
    "banana-boris": (
        ["banana", "--method", "boris"],
        "783002b138eb3df282abce2c231069e14910c755c586dc7ee46ffad7322d1959",
        "c0a6e10049d90961c328c4c9f5a26dced9f8f6eeb8e5845c24b2c0df318254ec"),
    "banana-rk4": (
        ["banana", "--method", "rk4"],
        "24c40f35663bb8841b1dbebd6e2dd915092b3697d16edeed98f97325b7a3296d",
        "f80197014fe35d28b632ec2022715b786f4842e481ddff1592bb26877bad9487"),
    # a config with stride 7, which does not divide 2000: the summary's
    # final_abs_err_* come from the last emitted row, not the last state
    "banana-stride-7": (
        None,
        "50b1518f7a05cb340cb12672125457b950444be86d42b63fb4a4cb38c7411e0b",
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
