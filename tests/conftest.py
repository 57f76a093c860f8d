"""Shared fixtures: the long reference runs are computed once per session."""

from __future__ import annotations

import pytest

import bdli


@pytest.fixture(scope="session")
def drift2d_scenario():
    return bdli.builtin_scenario("drift2d")


@pytest.fixture(scope="session")
def banana_scenario():
    return bdli.builtin_scenario("banana")


@pytest.fixture(scope="session")
def transit_scenario():
    return bdli.builtin_scenario("transit")


def _run(scn, method):
    sys = scn.system()
    traj = bdli.integrate(sys, bdli.resolve_method(method), scn.initial_state(),
                          scn.h, scn.n_steps, scn.solver)
    return sys, traj


@pytest.fixture(scope="session")
def drift2d_bdli(drift2d_scenario):
    """(system, trajectory) of the full 5e4-step drift2d run with bdli."""
    return _run(drift2d_scenario, "bdli")


@pytest.fixture(scope="session")
def drift2d_boris(drift2d_scenario):
    return _run(drift2d_scenario, "boris")


@pytest.fixture(scope="session")
def banana_bdli(banana_scenario):
    return _run(banana_scenario, "bdli")


@pytest.fixture(scope="session")
def transit_bdli(transit_scenario):
    return _run(transit_scenario, "bdli")


@pytest.fixture(scope="session")
def quartic_scenario():
    """Degree-4 polynomial energy: uniform B plus the (x.x)^2 well."""
    return bdli.Scenario(
        name="quartic",
        field={"name": "quartic_well",
               "params": {"B": [0.0, 0.0, 1.0], "strength": 1.0}},
        x0=(1.0, 0.0, 0.0),
        v0=(0.2, 0.2, 0.1),
        h=0.05,
        n_steps=1000,
        method="bdli",
    )


@pytest.fixture(scope="session")
def quartic_bdli(quartic_scenario):
    return _run(quartic_scenario, "bdli")


@pytest.fixture(scope="session")
def quartic_trapezoid(quartic_scenario):
    return _run(quartic_scenario, "dli:trapezoid")


@pytest.fixture(scope="session")
def magnetized_scenario(drift2d_scenario):
    """drift2d's field with the start moved to R = 1.

    There the gyro-radius (~0.1) is small against the field scale, the
    guiding-center picture applies, and the segment quadrature defect of
    the 1/R potential sits at round-off; used as supporting evidence next
    to the pinned drift2d runs.
    """
    from dataclasses import replace

    return replace(drift2d_scenario, name="drift2d_magnetized", x0=(0.0, 1.0, 0.0))
