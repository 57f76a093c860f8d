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
        "3b39b7da29926321dc28327387d9f5b07b24b864e09068ae894d23f9392d4470",
        "787dd5661e0b19507fbbc362d04bd03a0fe6e7fca8927d8933f7eb41da976821"),
    "transit": (
        ["transit"],
        "14d0e864d8127a7bc3a3a26db7bae1783e3c03f73a96f80ab27d991487b58137",
        "7395869b02089be416e995467d0842a75ae17b9984202035d809b0c1a9288b8e"),
    "drift2d": (
        ["drift2d"],
        "b6b6fc10892e3f98d32705310455d17068c68b710088258e96123708716950bd",
        "bbcd1c43682f92de084afebf6f194505d45c668be0c7c09fc390cb0de9bc6832"),
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
        "929c7ff7e32623e7cc2bcff2c71f5029071c5285c45003aa285eeec3ea9cfc39",
        "787dd5661e0b19507fbbc362d04bd03a0fe6e7fca8927d8933f7eb41da976821"),
    # a config with stride 7, which does not divide 2000: the summary's
    # final_abs_err_* come from the last emitted row, not the last state
    "banana-stride-7": (
        None,
        "1a3b3024e30a46236ff59700c803e54ecc9c61bee03f0fed755b2d24bd616989",
        "d2efd779dd6b13d065f867b64b12038d796d04ea84277bdaefaf83ad3c353486"),
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
