"""The scheduler surface that no workload or benchmark row used is
gone: whole-residency lending, the restore-check and model-memo knobs,
the per-admission packer, the stream's lookahead/packer/capacity
arguments, and the ``FleetService`` burst buffer.  Each now fails
loudly instead of being silently accepted."""

import importlib

import pytest

from repro.circuits import Circuit, x
from repro.errors import CircuitError
from repro.multiprog import FleetRouter, MultiProgrammer, QuantumJob, ShardSpec
from repro.multiprog.scheduler import LENDING_MODES


def test_lending_modes_are_segmented_and_windowed():
    assert LENDING_MODES == ("segmented", "windowed")
    with pytest.raises(CircuitError, match="lending"):
        MultiProgrammer(4, lending="whole")


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiProgrammer(4, restore_check="solver"),
        lambda: MultiProgrammer(4, memoise_models=False),
        lambda: FleetRouter([4], memoise_models=False),
        lambda: ShardSpec(4, restore_check="solver"),
    ],
    ids=["restore_check", "memoise_models", "fleet_memoise_models", "shard_spec"],
)
def test_retired_constructor_options_raise(build):
    with pytest.raises(TypeError):
        build()


def test_retired_call_options_raise():
    mp = MultiProgrammer(6, max_workers=1)
    job = QuantumJob("j", Circuit(1).extend([x(0)]), [])
    with pytest.raises(TypeError):
        mp.admit(job, packer="best-fit")
    for option in (
        {"lookahead": 4},
        {"packer": "best-fit"},
        {"enforce_capacity": False},
    ):
        with pytest.raises(TypeError):
            mp.admit_stream("s", 1, **option)
    assert mp.residents == ()


def test_service_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.multiprog.service")
