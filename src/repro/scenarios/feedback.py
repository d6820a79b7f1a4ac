"""The §6 feedback-loop study: coupled guardrails, timer vs. dependency.

Two guardrails watch *coupled* metrics on one kernel:

- **feedback-storage-false-submit** (guardrail A) watches the storage
  stand-in's ``false_submit_rate``; on a violation it SAVEs
  ``ml_enabled = false``, disabling the model.
- **feedback-net-retry-loss** (guardrail B) watches the bottleneck link's
  smoothed loss; on a violation it SAVEs ``ml_enabled = true``, restoring
  the model ("the fallback is hurting throughput, put the model back").

The coupling is physical: every false submit files retry debt, and the
link's controller drains that debt over a fixed horizon, so the *size* of
the loss spike scales with how much debt piled up — i.e. with guardrail
A's detection delay.  After the Figure-2 device drift breaks the model:

- under **timer-driven** checking A detects up to a full period late, the
  accumulated debt overdrives the link past capacity, B sees the loss and
  re-enables the broken model, and the pair oscillates for the rest of
  the run (≥3 alternating trips);
- under **dependency-driven** checking (:class:`DependencyTrigger` armed
  on the rules' exact read sets) A fires within milliseconds of the rate
  crossing its bound, the debt stays under the drain headroom, B never
  trips, and the loop damps after A's single trip.

Dependency checking is also the §6 perf win: once the model is off,
``false_submit_rate`` stops changing and A performs *zero* further
checks, where the timer burns one wasted check per period forever.
:class:`IdleCheckAuditor` counts those wasted checks (a check whose
watched-key versions did not change since the previous check completed);
``bench_scenarios.py`` gates on the reduction.
"""

from repro.core.dependency import convert_to_dependency_triggered, rule_load_keys
from repro.sim.units import SECOND

GUARDRAIL_A = """
guardrail feedback-storage-false-submit {
  // Listing-2 shape plus the guard clause: once the model is off the rule
  // passes, so the guardrail does not re-trip on its own remedy.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.2 || LOAD(ml_enabled) == false },
  action: {
    SAVE(ml_enabled, false),
    REPORT()
  }
}
"""

GUARDRAIL_B = """
guardrail feedback-net-retry-loss {
  // The coupled loop: sustained loss while the fallback is active reads
  // as "the remedy is hurting the network", so put the model back.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(net.loss.avg) <= 0.05 || LOAD(ml_enabled) == true },
  action: {
    SAVE(ml_enabled, true),
    REPORT()
  }
}
"""

A_NAME = "feedback-storage-false-submit"
B_NAME = "feedback-net-retry-loss"


def guarded_standin_policy(kernel, inference_ns=2_000):
    """The stand-in learned policy, gated on the ``ml_enabled`` flag.

    Enabled: shortest-queue with ``predicted_fast=True`` on every submit
    (so false submits happen at the volume's slow fraction).  Disabled:
    plain round-robin, ``used_model=False`` — no false-submit accounting,
    which is what lets ``false_submit_rate`` go quiet after A's remedy.
    """
    from repro.kernel.storage import PickDecision, shortest_queue_policy

    shortest_queue = shortest_queue_policy(inference_ns)
    state = {"rr": 0}

    def pick(volume):
        if bool(kernel.store.load("ml_enabled", default=True)):
            return shortest_queue(volume)
        index = state["rr"] % len(volume.devices)
        state["rr"] += 1
        return PickDecision(index)

    return pick


class RetryDebtBridge:
    """The physical coupling between the two guardrails' metrics.

    Every false submit files ``per_submit_mbit`` of retry traffic into a
    backlog; the link controller offers ``base_mbps`` plus enough extra to
    drain the backlog over ``drain_horizon_s``.  Headroom above base is
    finite, so a backlog larger than
    ``(capacity - base) * drain_horizon`` overdrives the link and shows
    up as loss — detection delay converts directly into spike size.
    """

    def __init__(self, kernel, link, base_mbps=60.0, per_submit_mbit=0.5,
                 drain_horizon_s=2.0):
        self.kernel = kernel
        self.link = link
        self.base_mbps = float(base_mbps)
        self.per_submit_mbit = float(per_submit_mbit)
        self.drain_horizon_s = float(drain_horizon_s)
        self.backlog_mbit = 0.0
        self.filed_mbit = 0.0
        kernel.store.subscribe(self._on_save)

    def _on_save(self, key, value, now):
        if key == "false_submit" and value:
            self.backlog_mbit += self.per_submit_mbit
            self.filed_mbit += self.per_submit_mbit

    def controller(self, observation):
        """CC slot implementation: base rate plus backlog drain."""
        extra = self.backlog_mbit / self.drain_horizon_s
        epoch_s = self.link.rtt / SECOND
        self.backlog_mbit = max(0.0, self.backlog_mbit - extra * epoch_s)
        return self.base_mbps + extra


class IdleCheckAuditor:
    """Counts checks whose watched keys did not change between checks.

    The stamp is taken *after* each check completes (including any action
    the check dispatched), so a check is "idle" exactly when the state it
    consumed is the state the previous check left behind — §6's wasted
    periodic check on an idle metric.
    """

    def __init__(self, kernel):
        self.store = kernel.store
        self.stats = {}

    def watch(self, monitor):
        keys = sorted(rule_load_keys(monitor.compiled.spec))
        entry = {"keys": keys, "checks": 0, "idle": 0}
        self.stats[monitor.name] = entry
        inner = monitor.check
        state = {"stamp": None}

        def audited_check(payload=None):
            stamp = tuple(self.store.version(key) for key in keys)
            entry["checks"] += 1
            if stamp == state["stamp"]:
                entry["idle"] += 1
            result = inner(payload)
            state["stamp"] = tuple(self.store.version(key) for key in keys)
            return result

        monitor.check = audited_check

    def total(self, field):
        return sum(entry[field] for entry in self.stats.values())


def build_feedback_kernel(mode, seed=17, duration_s=40.0, drift_at_s=3.0,
                          rate_ios=800, capacity_mbps=100.0, ml_start=True,
                          a_spacing_ns=int(0.1 * SECOND),
                          b_spacing_ns=1 * SECOND):
    """Compose the coupled rig; returns (kernel, monitors, bridge, auditor)."""
    if mode not in ("timer", "dependency"):
        raise ValueError("mode must be 'timer' or 'dependency', got {!r}"
                         .format(mode))
    from repro.kernel import Kernel
    from repro.kernel.net import BottleneckLink
    from repro.kernel.storage import (
        DeviceProfile,
        PoissonWorkload,
        ReplicatedVolume,
        SsdDevice,
        schedule_profile_change,
    )

    duration_ns = int(duration_s * SECOND)
    kernel = Kernel(seed=seed)
    devices = [
        SsdDevice(kernel.engine, kernel.engine.rng.get("ssd{}".format(i)),
                  "ssd{}".format(i), DeviceProfile.pre_drift())
        for i in range(3)
    ]
    volume = kernel.attach("storage", ReplicatedVolume(kernel, devices))
    # Both rules LOAD(ml_enabled); seed it so the guard clauses evaluate
    # (a missing key reads as missing data -> inconclusive checks).
    kernel.store.save("ml_enabled", bool(ml_start))
    volume.install_policy("storage.guarded_standin",
                          guarded_standin_policy(kernel))
    if drift_at_s is not None:
        schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                                int(drift_at_s * SECOND))
    PoissonWorkload(kernel, volume, [(duration_ns, rate_ios)]).start()

    link = kernel.attach("net", BottleneckLink(kernel,
                                               capacity_mbps=capacity_mbps))
    kernel.store.derive_moving_average("net.loss", window=8)
    bridge = RetryDebtBridge(kernel, link)
    kernel.functions.register_implementation("net.retry_drain",
                                             bridge.controller)
    kernel.functions.replace(link.CC_SLOT, "net.retry_drain")
    link.start()

    monitor_a = kernel.guardrails.load(GUARDRAIL_A)
    monitor_b = kernel.guardrails.load(GUARDRAIL_B)
    if mode == "dependency":
        # Convert after one full rate window: a dependency trigger fires on
        # the very first source save, when the 1 s window holds a handful
        # of samples and one slow I/O reads as a >0.2 "rate" — a
        # hair-trigger trip on sparse data, not a real detection.  The
        # timer mode's first check is at 1 s anyway, so warm-up is
        # symmetric across modes.
        def convert():
            convert_to_dependency_triggered(monitor_a,
                                            min_spacing=a_spacing_ns)
            convert_to_dependency_triggered(monitor_b,
                                            min_spacing=b_spacing_ns)

        kernel.engine.schedule(1 * SECOND, convert)
    auditor = IdleCheckAuditor(kernel)
    auditor.watch(monitor_a)
    auditor.watch(monitor_b)
    return kernel, (monitor_a, monitor_b), bridge, auditor


def run_feedback_study(mode, seed=17, duration_s=40.0, **kwargs):
    """Run one checking mode to completion; returns the §6 measurements.

    ``trip_sequence`` is the time-ordered list of guardrail names that
    dispatched their SAVE remedy; ``alternations`` counts adjacent pairs
    where control bounced between the two guardrails — the §6 oscillation
    signature.  ``converged`` means the run's damping held: at most one
    trip, or nothing tripped in the final quarter of the run.
    """
    kernel, monitors, bridge, auditor = build_feedback_kernel(
        mode, seed=seed, duration_s=duration_s, **kwargs)
    duration_ns = int(duration_s * SECOND)
    kernel.run(until=duration_ns)

    saves = kernel.reporter.notes_for(kind="SAVE")
    trip_sequence = [note["guardrail"] for note in saves]
    trip_times = [note["time"] for note in saves]
    alternations = sum(
        1 for previous, current in zip(trip_sequence, trip_sequence[1:])
        if previous != current
    )
    tail_start = duration_ns - duration_ns // 4
    tail_trips = sum(1 for time in trip_times if time >= tail_start)
    converged = len(trip_sequence) <= 1 or tail_trips == 0

    monitor_a, monitor_b = monitors
    result = {
        "mode": mode,
        "seed": seed,
        "duration_s": duration_s,
        "trips": len(trip_sequence),
        "trip_sequence": trip_sequence,
        "first_trip_s": (trip_times[0] / SECOND) if trip_times else None,
        "trips_a": trip_sequence.count(A_NAME),
        "trips_b": trip_sequence.count(B_NAME),
        "alternations": alternations,
        "tail_trips": tail_trips,
        "converged": converged,
        "checks_total": auditor.total("checks"),
        "idle_checks": auditor.total("idle"),
        "per_guardrail": {
            name: {
                "checks": auditor.stats[name]["checks"],
                "idle_checks": auditor.stats[name]["idle"],
                "violations": monitor.violation_count,
            }
            for name, monitor in ((monitor_a.name, monitor_a),
                                  (monitor_b.name, monitor_b))
        },
        "retry_debt_filed_mbit": round(bridge.filed_mbit, 3),
        "ml_enabled_final": bool(kernel.store.load("ml_enabled",
                                                   default=True)),
    }
    return result


def run_idle_check_study(mode, seed=17, duration_s=40.0, rate_ios=800):
    """§6's perf claim on a quiet host: checks on a metric that never moves.

    Same rig, model disabled from the start, no drift: the storage
    guardrail's ``false_submit_rate`` is never written, so every periodic
    check of it is wasted work.  Timer mode performs one wasted check per
    period for the whole run; dependency mode performs none (nothing ever
    fires the trigger).  Returns per-mode check/idle counts.
    """
    kernel, monitors, _bridge, auditor = build_feedback_kernel(
        mode, seed=seed, duration_s=duration_s, rate_ios=rate_ios,
        drift_at_s=None, ml_start=False)
    kernel.run(until=int(duration_s * SECOND))
    monitor_a, monitor_b = monitors
    return {
        "mode": mode,
        "checks_total": auditor.total("checks"),
        "idle_checks": auditor.total("idle"),
        "checks_a": auditor.stats[monitor_a.name]["checks"],
        "idle_a": auditor.stats[monitor_a.name]["idle"],
        "checks_b": auditor.stats[monitor_b.name]["checks"],
        "idle_b": auditor.stats[monitor_b.name]["idle"],
        "trips": (monitor_a.action_dispatch_count
                  + monitor_b.action_dispatch_count),
    }


def run_feedback_scenario(spec):
    """Adapter: run a registry ``feedback`` spec through the study."""
    mode = spec.workloads[0]
    study = run_feedback_study(mode, seed=spec.seed,
                               duration_s=spec.duration_s)
    behavior = "oscillates" if (study["alternations"] >= 3
                                and not study["converged"]) else "converges"
    verdicts = {"behavior": behavior}
    overall = "trip" if behavior == "oscillates" else "allow"
    return {
        "name": spec.name,
        "kind": spec.kind,
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "fault": spec.fault,
        "domains": {
            "storage+net": {"workload": mode, "policy": "learned",
                            "counters": {"trips": study["trips"],
                                         "checks": study["checks_total"],
                                         "idle_checks": study["idle_checks"]}}
        },
        "guardrails": {
            name: {
                "domain": "storage+net",
                "checks": stats["checks"],
                "violations": stats["violations"],
                "inconclusive": 0,
                "actions": stats["violations"],
                "verdict": "trip" if stats["violations"] else "quiet",
            }
            for name, stats in study["per_guardrail"].items()
        },
        "expected": dict(spec.expected),
        "verdicts": verdicts,
        "overall": overall,
        "matched": verdicts == spec.expected,
        "study": {
            "mode": mode,
            "trips": study["trips"],
            "alternations": study["alternations"],
            "tail_trips": study["tail_trips"],
            "converged": study["converged"],
            "checks_total": study["checks_total"],
            "idle_checks": study["idle_checks"],
        },
    }
