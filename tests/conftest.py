import time

import pytest

from iiotsim import harness, plan as planmod


@pytest.fixture(scope="session")
def default_bundle(tmp_path_factory):
    """One calibrated run of the shipped default plan, shared by the
    acceptance suite and the heavier integration tests."""
    plan = planmod.calibrate(planmod.default_plan())
    out = tmp_path_factory.mktemp("bundle")
    t0 = time.time()
    result = harness.run(plan, str(out))
    result.wall_seconds = time.time() - t0
    result.out_dir = str(out)
    return result


def small_plan(duration_s=60.0, attacks=()):
    """Default topology at a short duration, attacks replaced."""
    plan = planmod.default_plan()
    plan["duration_s"] = duration_s
    plan["attacks"] = list(attacks)
    return plan


class SilentSlave:
    """A TCP service that accepts the connection and never answers, as
    plant.ModbusSlaveService does with a request it cannot decode."""

    def on_open(self, stream):
        pass

    def on_data(self, stream, data):
        pass


@pytest.fixture()
def tiny_plan():
    return small_plan
