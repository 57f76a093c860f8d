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
        "f240976dec95845b2131dde7fa0560c4517208d9342cc31767e32984411d825a",
        "7ac216d84e038f949a08f7eead14d1d1edd3d6aa7fe82e1a645ad3bf3957ff1e"),
    "transit": (
        ["transit"],
        "5c409a21398e6977dc241e0ac9bfacd5a228835650af17cf5432d27e079b131e",
        "b576c12e006d6f915533d007eb38c8448897e45bfd5569012cfa26412d0061ac"),
    "drift2d": (
        ["drift2d"],
        "ae18e3ccfd61a34674c76817f7e5b1f52d5bb6dacf4e94c5f87f82602d79b576",
        "fc3f99f38a5711e41f889ffece8db4e513246bbd9565a786eec65a638ab07281"),
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
        "dc82a6946a1e262e4da88a5306c6c9160ef0928628896874675f3b53c972ca91",
        "7ac216d84e038f949a08f7eead14d1d1edd3d6aa7fe82e1a645ad3bf3957ff1e"),
    # a config with stride 7, which does not divide 2000: the summary's
    # final_abs_err_* come from the last emitted row, not the last state
    "banana-stride-7": (
        None,
        "8125797531d7ebd10511af16e810156e6fd303382be0acc912df8aef0f77c785",
        "6f12c0ae3c33fc14daa0f328ed70f06e832bd24da1cc47810c89021ebd5c0ace"),
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
