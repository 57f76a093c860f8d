import numpy as np
import pytest

from bdli.fields import as_vec3
from oracles import hat


def test_hat_layout():
    H = hat((1.0, 2.0, 3.0))
    assert np.array_equal(H, [[0, 3, -2], [-3, 0, 1], [2, -1, 0]])


def test_hat_zero():
    assert np.array_equal(hat((0, 0, 0)), np.zeros((3, 3)))


def test_hat_matches_cross():
    v = np.array([0.1, 0.01, 0.0])
    B = np.array([0.0, 0.0, 0.1])
    assert hat(B) @ v == pytest.approx([0.001, -0.01, 0.0], rel=1e-15)
    assert hat(B) @ v == pytest.approx(np.cross(v, B), rel=1e-15)


def test_hat_cross_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        B = rng.normal(size=3)
        v = rng.normal(size=3)
        lhs = hat(B) @ v
        rhs = np.cross(v, B)
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= 1e-15 * scale


def test_hat_is_exactly_skew():
    rng = np.random.default_rng(11)
    for _ in range(50):
        H = hat(rng.normal(size=3))
        assert np.array_equal(H + H.T, np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [(1, 2), (1, 2, 3, 4), np.array([1.0, np.nan, 0.0]),
                                 np.array([1.0, np.inf, 0.0]), "105", (True, 0, 0),
                                 (1, "0", 0), (10**400, 0, 0)])
def test_as_vec3_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        as_vec3(bad)
