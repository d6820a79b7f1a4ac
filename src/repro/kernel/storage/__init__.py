"""Replicated flash storage: the LinnOS substrate (§5 / Figure 2).

- :class:`~repro.kernel.storage.ssd.SsdDevice` — a flash device with a
  bimodal service process (fast path vs GC-induced slow episodes) driven by
  a hidden two-state Markov chain;
- :class:`~repro.kernel.storage.volume.ReplicatedVolume` — a flash-RAID-like
  volume: every read can be served by any replica, and the submit path picks
  a replica through a swappable policy slot (the learned LinnOS policy or a
  round-robin fallback);
- :mod:`~repro.kernel.storage.trace` — open-loop synthetic workloads with
  phases and mid-run device-behavior drift;
- :func:`build_storage_kernel` — a kernel with one such volume over
  pre-drift SSDs, the stack the fleet hosts and demo scenarios share.
"""

from repro.kernel.base import Kernel
from repro.kernel.storage.batch import BatchedCompletionIngest
from repro.kernel.storage.ssd import DeviceProfile, SsdDevice
from repro.kernel.storage.trace import (PoissonWorkload, ReplayWorkload,
                                        schedule_profile_change)
from repro.kernel.storage.volume import (IoRequest, PickDecision,
                                         ReplicatedVolume,
                                         shortest_queue_policy)

__all__ = [
    "BatchedCompletionIngest",
    "DeviceProfile",
    "SsdDevice",
    "PoissonWorkload",
    "ReplayWorkload",
    "schedule_profile_change",
    "IoRequest",
    "PickDecision",
    "ReplicatedVolume",
    "shortest_queue_policy",
    "build_storage_kernel",
]


def build_storage_kernel(seed=1, replicas=3):
    """A kernel with a replicated volume over ``replicas`` pre-drift SSDs."""
    kernel = Kernel(seed=seed)
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("ssd{}".format(i)),
                  "ssd{}".format(i), DeviceProfile.pre_drift())
        for i in range(replicas)
    ]
    volume = kernel.attach("storage", ReplicatedVolume(kernel, devices))
    return kernel, devices, volume
