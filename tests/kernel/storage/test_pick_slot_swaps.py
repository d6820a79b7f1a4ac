"""The volume resolves its pick slot once; every later swap is still seen.

``ReplicatedVolume`` looks up the ``storage.pick_device`` slot at
construction and calls ``slot.current`` per submit.  Each way the repo
rebinds that slot after the volume exists — the A2 REPLACE, a fault
injector's wrapper, a policy supervisor, and the LinnOS training
collector's swap-and-restore — must route the very next submit through
the new callable.
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, InjectedFault
from repro.faults.supervisor import PolicySupervisor
from repro.kernel.storage import PoissonWorkload, build_storage_kernel
from repro.kernel.storage.volume import round_robin_policy
from repro.policies.linnos import collect_training_data
from repro.sim.units import SECOND


def recording_policy(calls, name):
    """Round-robin that logs ``name`` per call."""
    inner = round_robin_policy()

    def pick(volume):
        calls.append(name)
        return inner(volume)

    return pick


@pytest.fixture
def storage():
    kernel, _devices, volume = build_storage_kernel(seed=3)
    calls = []
    volume.install_policy("test.a", recording_policy(calls, "a"))
    volume.submit()
    assert calls == ["a"]
    return kernel, volume, calls


def test_replace_reaches_the_next_submit(storage):
    kernel, volume, calls = storage
    kernel.functions.register_implementation(
        "test.b", recording_policy(calls, "b"))
    kernel.functions.replace(volume.PICK_SLOT, "test.b")
    volume.submit()
    assert calls == ["a", "b"]
    kernel.functions.replace(volume.PICK_SLOT, volume.FALLBACK_NAME)
    request = volume.submit()
    assert calls == ["a", "b"]  # the round-robin fallback served it
    assert request.used_model is False


def test_fault_injector_wrapper_reaches_the_next_submit(storage):
    kernel, volume, calls = storage
    plan = FaultPlan.from_flags(["raise@storage.pick_device:start=0,stop=1"])
    injector = FaultInjector(kernel, plan).install()
    with pytest.raises(InjectedFault):
        volume.submit()
    assert injector.injected_count == 1
    assert calls == ["a"]  # the wrapper raised before the policy ran


def test_policy_supervisor_reaches_the_next_submit(storage):
    kernel, volume, calls = storage

    def crashing(volume):
        calls.append("crash")
        raise RuntimeError("boom")

    kernel.functions.register_implementation("test.crash", crashing)
    kernel.functions.replace(volume.PICK_SLOT, "test.crash")
    supervisor = PolicySupervisor(kernel, volume.PICK_SLOT,
                                  volume.FALLBACK_NAME)
    request = volume.submit()  # contained: the fallback serves it
    assert calls == ["a", "crash"]
    assert supervisor.crash_count == 1
    assert supervisor.fallback_call_count == 1
    assert request.used_model is False


def test_linnos_collector_swap_and_restore(storage):
    kernel, volume, calls = storage
    features, _labels = collect_training_data(
        kernel, volume,
        PoissonWorkload(kernel, volume, [(SECOND // 2, 400)]).start,
        SECOND // 2)
    # Every submit of the collection phase went through the collector.
    assert calls == ["a"]
    assert len(features) > 0
    volume.submit()
    assert calls == ["a", "a"]
