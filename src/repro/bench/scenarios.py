"""Reusable experiment scenarios shared by examples, tests, and benchmarks.

The Figure 2 scenario lives here so the example script, the regression
test, and the benchmark all run exactly the same experiment.
"""

import collections

from repro.kernel import Kernel
from repro.kernel.storage import (
    DeviceProfile,
    PoissonWorkload,
    build_storage_kernel,
    schedule_profile_change,
    shortest_queue_policy,
)
from repro.policies.linnos import (
    LinnosPolicy,
    collect_training_data,
    train_linnos_model,
)
from repro.sim.units import SECOND

LISTING2_SPEC = """
guardrail low-false-submit {
  trigger: {
    TIMER(start_time, 1e9) // Periodically check every 1s.
  },
  rule: {
    LOAD(false_submit_rate) <= 0.05
  },
  action: {
    SAVE(ml_enabled, false)
  }
}
"""


def train_default_linnos_model(seed=1, train_seconds=20, rate_ios=900,
                               epochs=15):
    """Collect pre-drift training data and fit the LinnOS classifier."""
    kernel, _devices, volume = build_storage_kernel(seed=seed)
    workload = PoissonWorkload(kernel, volume,
                               [(train_seconds * SECOND, rate_ios)])
    features, labels = collect_training_data(
        kernel, volume, workload.start, train_seconds * SECOND
    )
    return train_linnos_model(features, labels, epochs=epochs, seed=seed)


class Fig2Result:
    """Everything the Figure 2 harness reports for one run."""

    def __init__(self, label, kernel, volume, policy):
        self.label = label
        self.kernel = kernel
        self.volume = volume
        self.policy = policy
        self.series = kernel.metrics.series("storage.io_latency_us")

    def moving_average(self, window=200):
        return self.series.moving_average(window)

    def per_second_means(self):
        return bucket_series(self.series, SECOND)

    def mean_between(self, start_s, end_s):
        window = self.series.window(start_s * SECOND, end_s * SECOND)
        if not window:
            return float("nan")
        return sum(v for _, v in window) / len(window)

    @property
    def false_submits(self):
        return self.volume.false_submits

    @property
    def ml_enabled(self):
        return bool(self.kernel.store.load("ml_enabled", default=True))


def bucket_series(series, bucket_ns):
    """Mean of a metric series per ``bucket_ns`` bucket, as (index, mean)."""
    buckets = collections.defaultdict(list)
    for t, v in series:
        buckets[t // bucket_ns].append(v)
    return [(int(b), sum(vs) / len(vs)) for b, vs in sorted(buckets.items())]


CLOSED_LOOP_SPEC = """
guardrail low-false-submit {
  // Listing 2 extended with the A3 leg of the lifecycle.  The threshold is
  // 0.2 rather than 0.05: under GC storms the stationary slow fraction is
  // ~33%, so even a good model false-submits ~10% — the 5% bound belongs to
  // the calm regime (thresholds "require system knowledge", §3.3).  The
  // broken model sits at ~0.5, so separation is clean both ways.
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.2 },
  action: {
    SAVE(ml_enabled, false),   // disable immediately (A2-style mitigation)
    RETRAIN(linnos)            // and queue retraining on fresh data (A3)
  }
}
"""


def run_closed_loop_scenario(model, seed=2, drift_at_s=6, duration_s=24,
                             rate_ios=1200, training_time_s=3,
                             train_window=3000):
    """Figure 2 extended with the full §3.2 lifecycle.

    misbehave -> detect -> disable -> retrain on the post-drift sample
    buffer -> swap the new model in and re-enable.  Returns the
    :class:`Fig2Result` plus the daemon for inspection.
    """
    from repro.core.retraining import RetrainDaemon
    from repro.policies.linnos import OnlineSampleBuffer, train_linnos_model

    kernel, devices, volume = build_storage_kernel(seed=seed)
    policy = LinnosPolicy(kernel, model)
    volume.install_policy("storage.linnos", policy)
    buffer = OnlineSampleBuffer(volume)
    kernel.guardrails.load(CLOSED_LOOP_SPEC, cooldown=2 * SECOND)

    def trainer(request):
        features, labels = buffer.dataset(last=train_window)
        return train_linnos_model(features, labels, epochs=10, seed=seed)

    def on_complete(new_model, request):
        policy.model = new_model
        kernel.store.save("ml_enabled", True)

    daemon = RetrainDaemon(kernel, poll_interval=1 * SECOND)
    daemon.register("linnos", trainer, on_complete,
                    training_time=training_time_s * SECOND)
    daemon.start()

    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            drift_at_s * SECOND)
    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, rate_ios)]).start()
    kernel.run(until=duration_s * SECOND)
    return Fig2Result("closed-loop", kernel, volume, policy), daemon


TRACE_DEMO_SPECS = """
// The `grctl trace` quick scenario: one TIMER guardrail with a SAVE+RETRAIN
// remedy and one FUNCTION guardrail on the allocation hook, so a short run
// exercises every tracepoint category.
guardrail queue-bound {
  trigger: { TIMER(start_time, 100ms) },
  rule: { LOAD(queue_depth.avg) <= 8 },
  action: { SAVE(throttle, true), RETRAIN(demo) }
}
guardrail alloc-bound {
  trigger: { FUNCTION(mm.alloc) },
  rule: { granted <= available },
  action: { REPORT() }
}
"""


def run_trace_demo_scenario(seed=7, duration_s=4):
    """A small self-contained run that lights up every trace category.

    A synthetic queue-depth ramp violates the TIMER guardrail mid-run
    (SAVE + RETRAIN, drained by a registered no-op trainer) while a
    periodic allocator fires ``mm.alloc`` with occasional over-grants for
    the FUNCTION guardrail.  Returns the kernel for inspection.
    """
    from repro.core.retraining import RetrainDaemon

    kernel = Kernel(seed=seed, retrain_min_interval=SECOND)
    alloc_hook = kernel.hooks.declare("mm.alloc")
    kernel.store.derive_moving_average("queue_depth", window=16)
    kernel.guardrails.load_all(TRACE_DEMO_SPECS)

    daemon = RetrainDaemon(kernel, poll_interval=SECOND // 2)
    daemon.register("demo", lambda request: None,
                    training_time=SECOND // 2)
    daemon.start()

    step_ns = 10 * SECOND // 1000  # 10 ms
    ramp_at = duration_s * SECOND // 2

    def tick(i):
        now = kernel.engine.now
        depth = 2 + (i % 4) if now < ramp_at else 10 + (i % 6)
        kernel.store.save("queue_depth", depth)
        if i % 5 == 0:
            granted = 120 if i % 40 == 0 and now >= ramp_at else 40
            alloc_hook.fire(granted=granted, available=100)
        kernel.engine.schedule(step_ns, tick, i + 1)

    kernel.engine.schedule(0, tick, 0)
    kernel.run(until=duration_s * SECOND)
    return kernel


def run_figure2_scenario(model, mode, seed=2, drift_at_s=6, duration_s=18,
                         rate_ios=1200, guardrail_spec=LISTING2_SPEC,
                         fault_plan=None, supervise=False,
                         breaker_config=None, slow_call_ns=None):
    """One Figure 2 run.

    ``mode``: ``'baseline'`` (round-robin only), ``'linnos'`` (model, no
    guardrail), or ``'guarded'`` (model + the Listing 2 guardrail).
    Mid-run, every device shifts to the post-drift profile.

    ``fault_plan`` optionally arms a :class:`~repro.faults.plan.FaultPlan`
    against the run (the injector is attached to the result as
    ``result.injector``); ``supervise=True`` wraps the pick slot in a
    :class:`~repro.faults.supervisor.PolicySupervisor` (attached as
    ``result.policy_supervisor``) so injected crashes are contained and the
    breaker REPLACEs the policy with round-robin.  The injector installs
    *before* the supervisor: faults fire inside the supervised call.  With
    neither argument the run is byte-identical to the pre-faults scenario.
    """
    if mode not in ("baseline", "linnos", "guarded"):
        raise ValueError("unknown mode {!r}".format(mode))
    kernel, devices, volume = build_storage_kernel(seed=seed)
    policy = None
    if mode != "baseline":
        policy = LinnosPolicy(kernel, model)
        volume.install_policy("storage.linnos", policy)
    if mode == "guarded":
        kernel.guardrails.load(guardrail_spec)
    injector = supervisor = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(kernel, fault_plan).install()
    if supervise:
        from repro.faults.supervisor import PolicySupervisor, make_pick_validator

        supervisor = PolicySupervisor(
            kernel, volume.PICK_SLOT, volume.FALLBACK_NAME,
            config=breaker_config,
            validator=make_pick_validator(len(devices)),
            slow_call_ns=slow_call_ns)
    schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                            drift_at_s * SECOND)
    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, rate_ios)]).start()
    kernel.run(until=duration_s * SECOND)
    result = Fig2Result(mode, kernel, volume, policy)
    result.injector = injector
    result.policy_supervisor = supervisor
    return result


FAULTS_DEMO_SPEC = """
// The `grctl faults` quick scenario: a TIMER guardrail over the trailing
// time-average latency.  Corrupt/stale store reads hit its LOAD; its REPORT
// remedy gives action dispatches for the trace to show.
guardrail latency-bound {
  trigger: { TIMER(start_time, 1s) },
  rule: { LOAD(io_latency_us.tavg) <= 2000 },
  action: { REPORT() }
}
"""


class FaultsDemoResult:
    """Everything the chaos demo reports for one run."""

    def __init__(self, kernel, volume, monitor, injector, supervisor):
        self.kernel = kernel
        self.volume = volume
        self.monitor = monitor
        self.injector = injector
        self.policy_supervisor = supervisor

    @property
    def completed(self):
        return self.volume.completed

    def stats(self):
        """One JSON-friendly dict: injections, containment, breakers."""
        return {
            "completed_ios": self.volume.completed,
            "injected": self.injector.stats() if self.injector else None,
            "policy": (self.policy_supervisor.stats()
                       if self.policy_supervisor else None),
            "monitors": self.kernel.supervisor.stats(),
            "guardrail": self.monitor.stats(),
        }


def run_faults_demo_scenario(seed=11, duration_s=12, rate_ios=800,
                             fault_plan=None, breaker_config=None,
                             slow_call_ns=1_000_000):
    """A small self-contained chaos run for ``grctl faults`` and the bench.

    A synthetic storage kernel serves a Poisson read workload through a
    shortest-queue stand-in policy (installed as ``storage.shortest_queue``)
    watched by one TIMER guardrail over ``io_latency_us.tavg``.  The pick
    slot is wrapped in a :class:`PolicySupervisor` (validator + 1 ms
    slow-call ceiling), so any ``fault_plan`` aimed at the slot or the store
    exercises the full containment path: inject -> contain -> trip ->
    REPLACE with round-robin -> re-arm.  Without a plan the run is a clean
    deterministic baseline.
    """
    from repro.faults.supervisor import PolicySupervisor, make_pick_validator

    kernel, devices, volume = build_storage_kernel(seed=seed)
    kernel.store.derive_time_average("io_latency_us", window=2 * SECOND)
    volume.install_policy("storage.shortest_queue", shortest_queue_policy())
    monitor = kernel.guardrails.load(FAULTS_DEMO_SPEC, cooldown=2 * SECOND)

    injector = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(kernel, fault_plan).install()
    supervisor = PolicySupervisor(
        kernel, volume.PICK_SLOT, volume.FALLBACK_NAME,
        config=breaker_config,
        validator=make_pick_validator(len(devices)),
        slow_call_ns=slow_call_ns)

    PoissonWorkload(kernel, volume,
                    [(duration_s * SECOND, rate_ios)]).start()
    kernel.run(until=duration_s * SECOND)
    return FaultsDemoResult(kernel, volume, monitor, injector, supervisor)
