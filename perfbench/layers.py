"""Per-layer accounting for the benchmark's traced run.

:class:`Layers` wraps public methods at the boundary of each layer while it
is installed, and restores the originals when it is removed.  It is used
only by the traced run; the end-to-end run never installs it.

Each wrapped call is a span.  Spans nest on one stack, so a layer's *self*
time is its spans' duration minus the part covered by wrapped child spans
(``Engine.run`` minus the storage, monitor, feature-store and digest calls
it dispatches, for example).  Every ``*_s`` metric below is such a self
time, except the ``fleet.worker`` and ``service.query`` ones: those are
whole spans, because what the caller waits on there is everything beneath
(host stepping, digest merges of a dashboard query).
"""

import math
import pickle
import time
from collections import defaultdict

from timing import handler_ns, median, tail

_NS = 1e-9


class Layers:
    """Installs the layer wrappers; collects calls, self time and samples."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self.monitors = {}
        self._stack = []
        self._patched = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, owner, attr, name, keep_samples=False, after=None):
        original = owner.__dict__[attr]
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        samples = self.samples[name] if keep_samples else None
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            handled = handler_ns()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start - (handler_ns() - handled)
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                calls[name] += 1
                self_ns[name] += duration - child
                total_ns[name] += duration
                if samples is not None:
                    samples.append(duration)
            if after is not None:
                after(args, result)
            return result

        self._replace(owner, attr, original, wrapper)

    def _count(self, owner, attr, name):
        original = owner.__dict__[attr]
        calls = self.calls

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if result:
                calls[name] += 1
            return result

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    # -- the layer boundaries ------------------------------------------------

    def install(self):
        from repro.core.featurestore import FeatureStore
        from repro.core.monitor import GuardrailMonitor
        from repro.fleet.aggregate import FleetDigest, HostDigest
        from repro.fleet.rollout import GateConfig
        from repro.fleet.worker import FleetRunner, SimulatedHost
        from repro.kernel.cache import KvCache
        from repro.kernel.mm import TieredMemory
        from repro.kernel.storage import ReplicatedVolume, SsdDevice
        from repro.service import dashboard
        from repro.service.store import ResultsStore
        from repro.sim.engine import Engine

        counts = self.counts

        def on_check(args, violations):
            monitor = args[0]
            self.monitors[id(monitor)] = monitor

        def on_merge(args, fleet):
            # A cutoff before every event: counts the log without evicting.
            counts["rate_log_events"] += fleet.false_submit_rate.count(
                -math.inf)

        def on_round(args, digests):
            runner = args[0]
            if runner.jobs > 1:
                counts["ipc_bytes"] += len(pickle.dumps(digests))
            counts["rounds"] += 1

        def on_row(args, row):
            counts["rows"] += 1
            counts["row_bytes"] += len(row["sketches"].encode())

        def on_commit(args, folded):
            counts["rows_deleted"] += folded["rows_deleted"]

        def on_read(args, rows):
            counts["rows_read"] += len(rows)

        self._span(Engine, "run", "sim.engine")
        self._count(Engine, "step", "sim.engine.events")
        self._span(ReplicatedVolume, "submit", "kernel.storage.submit")
        self._span(SsdDevice, "enqueue", "kernel.storage.enqueue")
        self._span(FeatureStore, "save", "core.featurestore.save")
        self._span(FeatureStore, "load", "core.featurestore.load")
        self._span(GuardrailMonitor, "check", "core.monitor.check",
                   keep_samples=True, after=on_check)
        self._span(HostDigest, "observe_io", "fleet.aggregate.observe")
        self._span(SimulatedHost, "digest", "fleet.aggregate.digest")
        self._span(FleetDigest, "merge_host", "fleet.aggregate.merge",
                   after=on_merge)
        self._span(SimulatedHost, "step", "fleet.worker.step")
        self._span(FleetRunner, "step_round", "fleet.worker.round",
                   after=on_round)
        self._span(GateConfig, "evaluate", "fleet.rollout.gate")
        self._span(ResultsStore, "commit_round", "service.store.commit",
                   keep_samples=True, after=on_commit)
        self._span(HostDigest, "to_row", "service.store.to_row",
                   after=on_row)
        for reader in ("round_rows", "digest_rows", "bucket_rows"):
            self._span(ResultsStore, reader, "service.store." + reader,
                       after=on_read)
        self._span(dashboard, "gather", "service.query.gather")
        for query, short in QUERIES:
            self._span(dashboard, query, "service.query." + short)
        self._span(KvCache, "access", "kernel.cache.access")
        self._span(TieredMemory, "access", "kernel.mm.access")
        return self

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- readings --------------------------------------------------------------

    def self_s(self, name):
        return self.self_ns.get(name, 0) * _NS

    def total_s(self, name):
        return self.total_ns.get(name, 0) * _NS


#: The dashboard's five queries, as ``gather()`` calls them, with the short
#: name of each one's ``service.query.<short>_s`` metric.
QUERIES = (("run_status", "status"), ("stage_rates", "stages"),
           ("latency_trend", "trend"), ("gate_margins", "gates"),
           ("rollback_timeline", "rollbacks"))

#: Metrics of layers that run inside fleet shard processes.  A traced
#: ``serve_soak`` takes these from an inline replay (``jobs=1``), because a
#: shard's wrappers count in the shard process and never reach the parent.
SHARD_SIDE = (
    "sim.engine.events", "sim.engine.self_s",
    "kernel.storage.submits", "kernel.storage.submit_s",
    "kernel.storage.enqueue_s",
    "core.featurestore.saves", "core.featurestore.save_s",
    "core.featurestore.loads", "core.featurestore.load_s",
    "core.monitor.checks", "core.monitor.check_s",
    "core.monitor.check_ns_p50", "core.monitor.check_ns_tail",
    "core.monitor.violations", "core.monitor.inconclusive",
    "fleet.aggregate.observe_s", "fleet.aggregate.digest_s",
    "fleet.worker.step_s",
)


def layer_metrics(layers, log):
    """Per-layer metric values of one traced pass (``log`` is its Log)."""
    calls, counts = layers.calls, layers.counts
    check_ns = layers.samples["core.monitor.check"]
    commit_ms = [ns * 1e-6 for ns in layers.samples["service.store.commit"]]
    check_tail, check_pct = tail(check_ns)
    commit_tail, commit_pct = tail(commit_ms)
    monitors = layers.monitors.values()
    rounds = counts["rounds"]
    rows = counts["rows"]
    values = {
        "sim.engine.events": calls["sim.engine.events"],
        "sim.engine.self_s": layers.self_s("sim.engine"),
        "kernel.storage.submits": calls["kernel.storage.submit"],
        "kernel.storage.submit_s": layers.self_s("kernel.storage.submit"),
        "kernel.storage.enqueue_s": layers.self_s("kernel.storage.enqueue"),
        "core.featurestore.saves": calls["core.featurestore.save"],
        "core.featurestore.save_s": layers.self_s("core.featurestore.save"),
        "core.featurestore.loads": calls["core.featurestore.load"],
        "core.featurestore.load_s": layers.self_s("core.featurestore.load"),
        "core.monitor.checks": calls["core.monitor.check"],
        "core.monitor.check_s": layers.self_s("core.monitor.check"),
        "core.monitor.check_ns_p50": median(check_ns),
        "core.monitor.check_ns_tail": check_tail,
        "core.monitor.violations": sum(m.violation_count for m in monitors),
        "core.monitor.inconclusive": sum(m.inconclusive_count
                                         for m in monitors),
        "fleet.aggregate.observe_s": layers.self_s("fleet.aggregate.observe"),
        "fleet.aggregate.digest_s": layers.self_s("fleet.aggregate.digest"),
        "fleet.aggregate.merges": calls["fleet.aggregate.merge"],
        "fleet.aggregate.merge_s": layers.self_s("fleet.aggregate.merge"),
        "fleet.aggregate.rate_log_events": counts["rate_log_events"],
        "fleet.worker.step_s": layers.total_s("fleet.worker.step"),
        "fleet.worker.round_wait_s": layers.total_s("fleet.worker.round"),
        "fleet.worker.ipc_bytes_per_round": (counts["ipc_bytes"] / rounds
                                             if rounds else 0.0),
        "fleet.rollout.gates": calls["fleet.rollout.gate"],
        "fleet.rollout.gate_s": layers.self_s("fleet.rollout.gate"),
        "service.store.commit_ms_p50": median(commit_ms),
        "service.store.commit_ms_tail": commit_tail,
        "service.store.row_bytes_mean": (counts["row_bytes"] / rows
                                         if rows else 0.0),
        "service.store.rows_deleted": counts["rows_deleted"],
        "service.store.db_bytes": log.info.get("db_bytes", 0),
        "service.query.gather_s": layers.total_s("service.query.gather"),
        "service.query.rows_read": counts["rows_read"],
        "kernel.cache.access_s": layers.self_s("kernel.cache.access"),
        "kernel.mm.access_s": layers.self_s("kernel.mm.access"),
    }
    for _, short in QUERIES:
        values["service.query.{}_s".format(short)] = layers.total_s(
            "service.query." + short)
    percentiles = {
        "core.monitor.check_ns_tail": check_pct,
        "service.store.commit_ms_tail": commit_pct,
    }
    samples = {
        "core.monitor.check_ns": len(check_ns),
        "service.store.commit_ms": len(commit_ms),
    }
    return values, {"tail_percentiles": percentiles, "samples": samples}
