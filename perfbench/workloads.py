"""The benchmark's four closed-loop workloads.

Every workload is driven by one caller that issues the next round or
scenario only after the previous one completes.  Each has:

- ``MODULES``: the program modules the workload imports.  The benchmark
  times their import in fresh interpreters, so program modules are
  imported inside the functions here: an import probe then pays its own
  workload's imports and no other's.
- ``run(seed, passes, workdir)``: ``passes`` measured passes over the
  workload; returns a :class:`Log`.  Each pass also times its own set-up,
  from the pass's start to its first step, through the program's own
  entry points.  Keyword arguments shrink the sizes for the smoke test;
  the benchmark always runs the defaults.
- ``probe(seed, workdir, reference)``: the traced run's extra figures,
  from the untraced ``reference`` log and any runs of its own; returns
  them, a dict of details for the run record, and the :class:`Log` of
  those runs.
- ``SHARDED``: whether hosts run in shard processes; such a workload also
  has ``inline_replay(seed, workdir)``, which the traced run uses to see
  the shard-side layers.

Only public entry points of the program are used, and nothing from
``repro.bench``.
"""

import hashlib
import importlib
import json
import os
import shutil
import tempfile

from timing import Lap, Stopwatch, median, sampling


class Log:
    """Timings, simulated work and output checks of one run."""

    def __init__(self):
        #: calibrated and raw seconds of the simulated work; set-up is
        #: excluded
        self.busy_s = 0.0
        self.busy_raw_s = 0.0
        #: simulated host-seconds covered by ``busy_s``
        self.sim_s = 0.0
        #: simulated I/Os completed within ``busy_s``
        self.sim_ios = 0
        #: calibrated and raw milliseconds of each closed-loop step
        self.steps_ms = []
        self.steps_raw_ms = []
        #: one :data:`Lap` per pass: its set-up, up to its first step
        self.setups = []
        self.attempted = 0
        self.failures = []
        #: workload-specific figures for the run record and the layer report
        self.info = {}

    def step(self, lap):
        """Record one closed-loop step."""
        self.steps_ms.append(lap.ns * 1e-6)
        self.steps_raw_ms.append(lap.raw_ns * 1e-6)
        self.work(lap)

    def work(self, lap):
        """Count ``lap`` as measured work outside any step."""
        self.busy_s += lap.ns * 1e-9
        self.busy_raw_s += lap.raw_ns * 1e-9

    def per_sim_s(self):
        """Calibrated and raw wall seconds per simulated host-second."""
        return self.busy_s / self.sim_s, self.busy_raw_s / self.sim_s

    def check(self, ok, message):
        """Count one output check; remember ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _import(modules):
    for module in modules:
        importlib.import_module(module)


def _total(laps):
    return Lap(sum(lap.ns for lap in laps), sum(lap.raw_ns for lap in laps))


def _sha256(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# fleet_rollout


class _RoundClock:
    """Rollout observer that times each round from boundary to boundary.

    Made just before the rollout starts.  The first timeline entry comes
    after the rollout is built and its runner started, before round 0:
    that ends the pass's set-up.
    """

    def __init__(self, log):
        self.log = log
        self.watch = Stopwatch()
        self.started = False
        self.rounds = 0
        self.ios = 0

    def on_timeline(self, entry):
        if not self.started:
            self.log.setups.append(self.watch.lap())
            self.started = True

    def on_phase(self, phase):
        pass

    def on_gate(self, stage_label, round_index, result):
        pass

    def on_round(self, round_index, time_ns, digests):
        self.log.step(self.watch.lap())
        self.rounds += 1
        self.ios += sum(digest.completed_ios for digest in digests)


class FleetRollout:
    """The canonical Listing-2 staged rollout at the full tier, inline."""

    name = "fleet_rollout"
    SHARDED = False
    HOSTS = 32
    #: nominal wall seconds of one pass, which sets the passes per run
    PASS_S = 10.0
    #: three rollouts give 27 rounds, enough for a tail with ten beyond it
    MIN_PASSES = 3
    MODULES = ("repro.fleet.scenario",)
    #: rollouts on each side of the scaling probe
    SCALING_PASSES = 2
    SCALING_HOSTS = 8

    def run(self, seed, passes, workdir, hosts=HOSTS):
        _import(self.MODULES)
        from repro.fleet.scenario import run_fleet_rollout

        log = Log()
        digests = set()
        for _ in range(passes):
            clock = _RoundClock(log)
            report = run_fleet_rollout(hosts=hosts, seed=seed, jobs=1,
                                       observer=clock)
            # The last round's merges and the gate after it.
            log.work(clock.watch.lap())
            log.sim_s += hosts * clock.rounds
            log.sim_ios += clock.ios
            log.check(report["status"] == "completed",
                      "rollout status {!r}".format(report["status"]))
            digests.add(_sha256(report))
        log.check(len(digests) == 1,
                  "{} distinct reports for one seed".format(len(digests)))
        log.info["report_sha256"] = sorted(digests)
        return log

    def probe(self, seed, workdir, reference):
        """The scaling probe: per host-round wall at 32 hosts over 8 hosts.

        Each side is the median of ``SCALING_PASSES`` rollouts, the
        untraced reference being the first at 32 hosts.
        """
        big = [reference] + [self.run(seed, 1, workdir, hosts=self.HOSTS)
                             for _ in range(self.SCALING_PASSES - 1)]
        small = [self.run(seed, 1, workdir, hosts=self.SCALING_HOSTS)
                 for _ in range(self.SCALING_PASSES)]

        def host_round_ms(logs):
            per = [log.per_sim_s() for log in logs]
            return (median([cal for cal, _ in per]) * 1e3,
                    median([raw for _, raw in per]) * 1e3)

        big_ms, big_raw_ms = host_round_ms(big)
        small_ms, small_raw_ms = host_round_ms(small)
        detail = {"scaling": {
            "hosts": [self.HOSTS, self.SCALING_HOSTS],
            "passes": self.SCALING_PASSES,
            "host_round_ms": [big_ms, small_ms],
            "host_round_raw_ms": [big_raw_ms, small_raw_ms],
            "raw_ratio": big_raw_ms / small_raw_ms,
        }}
        return ({"fleet.scaling_ratio": big_ms / small_ms}, detail,
                big[1:] + small)


# ---------------------------------------------------------------------------
# serve_soak


class ServeSoak:
    """A steady-state soak into a fresh sqlite store, then dashboard reads."""

    name = "serve_soak"
    SHARDED = True
    HOSTS, ROUNDS, RATE_IOS, JOBS, READS = 16, 40, 400, 2, 2
    PASS_S = 10.0
    #: two soaks give 78 rounds, whose tail reads steadier than one soak's
    MIN_PASSES = 2
    MODULES = ("repro.fleet.scenario", "repro.service.dashboard",
               "repro.service.loop", "repro.service.store")

    def run(self, seed, passes, workdir, hosts=HOSTS, rounds=ROUNDS,
            jobs=JOBS, reads=READS):
        _import(self.MODULES)
        from repro.service import dashboard
        from repro.service.loop import serve_soak
        from repro.service.store import ResultsStore, RetentionPolicy

        log = Log()
        read_ms, read_raw_ms = [], []

        class TimedStore(ResultsStore):
            """Times each round from one commit's return to the next's.

            The pass's set-up runs from opening the store to round 0's
            commit, because round 0 also pays for starting the shards.
            """

            def __init__(self, *args, **kwargs):
                self.watch = Stopwatch()
                super().__init__(*args, **kwargs)
                self.started = False
                self.rounds = 0

            def commit_round(self, *args, **kwargs):
                folded = super().commit_round(*args, **kwargs)
                if self.started:
                    log.step(self.watch.lap())
                    self.rounds += 1
                else:
                    log.setups.append(self.watch.lap())
                    self.started = True
                return folded

        for _ in range(passes):
            path = tempfile.mkdtemp(dir=workdir)
            db = os.path.join(path, "soak.db")
            try:
                store = TimedStore(db, retention=RetentionPolicy(
                    raw_rounds=8, bucket_rounds=8))
                summary = serve_soak(store, hosts=hosts, rounds=rounds,
                                     rate_ios=self.RATE_IOS, jobs=jobs,
                                     seed=seed)
                log.sim_s += hosts * store.rounds
                log.sim_ios += sum(row["completed_ios"] for row in
                                   store.round_rows(summary["run"], 1))
                self._check_soak(log, summary, rounds)
                views = set()
                for _ in range(reads):
                    watch = Stopwatch()
                    view = dashboard.gather(store)
                    elapsed = watch.lap()
                    read_ms.append(elapsed.ns * 1e-6)
                    read_raw_ms.append(elapsed.raw_ns * 1e-6)
                    log.work(elapsed)
                    views.add(_sha256(view))
                    log.check(view["status"]["totals"] == summary["totals"],
                              "dashboard totals differ from the soak summary")
                log.check(len(views) <= 1,
                          "{} distinct dashboard reads".format(len(views)))
                store.close()
                log.info["db_bytes"] = sum(
                    os.path.getsize(os.path.join(path, name))
                    for name in os.listdir(path))
            finally:
                shutil.rmtree(path)
        log.info.update(dash_ms=read_ms, dash_raw_ms=read_raw_ms)
        return log

    def inline_replay(self, seed, workdir):
        """One soak with the hosts stepped in this process, and no reads."""
        return self.run(seed, 1, workdir, jobs=1, reads=0)

    @staticmethod
    def _check_soak(log, summary, rounds):
        log.check(summary["status"] == "completed",
                  "soak status {!r}".format(summary["status"]))
        log.check(summary["committed_round"] == rounds - 1
                  and summary["rounds_committed_now"] == rounds,
                  "committed {} of {} rounds".format(
                      summary["rounds_committed_now"], rounds))

    def probe(self, seed, workdir, reference):
        return ({"service.query.dash_ms_p50":
                 median(reference.info["dash_ms"])},
                {"dash_raw_ms_p50": median(reference.info["dash_raw_ms"])},
                [])


# ---------------------------------------------------------------------------
# guarded_io

#: REPORT-only guardrails: the Listing-2 TIMER rule and three rules checked
#: on every I/O — a fused threshold, an aggregate pair that derives windowed
#: feature-store keys, and a multi-load composite that ``lane="auto"``
#: compiles to the bytecode VM.
GUARDRAILS = (
    """guardrail low-false-submit {
  trigger: { TIMER(start_time, 1e9) },
  rule: { LOAD(false_submit_rate) <= 0.05 },
  action: { REPORT() }
}""",
    """guardrail io-latency-cap {
  trigger: { FUNCTION(storage.io_complete) },
  rule: { LOAD(io_latency_us) <= 20000 },
  action: { REPORT() }
}""",
    """guardrail io-latency-shape {
  trigger: { FUNCTION(storage.io_complete) },
  rule: { AVG(io_latency_us, 1s) <= 2000 && P95(io_latency_us) <= 20000 },
  action: { REPORT() }
}""",
    """guardrail submit-sanity {
  trigger: { FUNCTION(storage.submit_io) },
  rule: { LOAD(io_latency_us) <= 100 || LOAD(false_submit_rate) <= 0.5
          || LOAD(io_latency_us) <= 50000 },
  action: { REPORT() }
}""",
)


def _shortest_queue(volume):
    """Stand-in learned pick: the shallowest queue, always predicted fast."""
    from repro.kernel.storage import PickDecision

    devices = volume.devices
    index = min(range(len(devices)), key=lambda i: devices[i].queue_depth)
    return PickDecision(index, used_model=True, predicted_fast=True,
                        inference_ns=2_000)


class GuardedIo:
    """One Fig-2 storage kernel run bare, then under REPORT-only guardrails."""

    name = "guarded_io"
    SHARDED = False
    #: the devices drift to the post-drift profile at half time
    RATE_IOS, SECONDS = 2000, 30
    #: simulated seconds per closed-loop step
    STEP_S = 2
    PASS_S = 4.0
    MIN_PASSES = 1
    MODULES = ("repro.kernel", "repro.kernel.storage")

    def _kernel(self, seed, guarded, seconds):
        from repro.kernel import Kernel
        from repro.kernel.storage import (DeviceProfile, PoissonWorkload,
                                          ReplicatedVolume, SsdDevice,
                                          schedule_profile_change)
        from repro.sim.units import SECOND

        kernel = Kernel(seed=seed)
        devices = [SsdDevice(kernel.engine,
                             kernel.engine.rng.get("ssd{}".format(i)),
                             "ssd{}".format(i), DeviceProfile.pre_drift())
                   for i in range(3)]
        volume = kernel.attach("storage", ReplicatedVolume(kernel, devices))
        volume.install_policy("storage.shortest_queue", _shortest_queue)
        schedule_profile_change(kernel, devices, DeviceProfile.post_drift(),
                                seconds * SECOND // 2)
        if guarded:
            for text in GUARDRAILS:
                kernel.guardrails.load(text)
        PoissonWorkload(kernel, volume,
                        [(seconds * SECOND, self.RATE_IOS)]).start()
        return kernel, volume

    def drive(self, seed, guarded, seconds=SECONDS):
        """Build one kernel, then run it ``STEP_S`` simulated seconds at a time.

        Returns the build's :data:`Lap`, the steps' laps, the kernel's
        simulated statistics, its rule and action crashes and its checks.
        """
        from repro.sim.units import SECOND

        watch = Stopwatch()
        kernel, volume = self._kernel(seed, guarded, seconds)
        build = watch.lap()
        steps = []
        for second in range(self.STEP_S, seconds + 1, self.STEP_S):
            kernel.run(until=second * SECOND)
            steps.append(watch.lap())
        stats = (volume.completed, volume.false_submit_fraction(),
                 volume.mean_latency_us())
        monitors = kernel.guardrails.monitors()
        crashes = sum(m.rule_crash_count + m.action_crash_count
                      for m in monitors)
        checks = sum(m.check_count for m in monitors)
        return build, steps, stats, crashes, checks

    def run(self, seed, passes, workdir, seconds=SECONDS):
        """One bare kernel, then ``passes`` guarded ones checked against it.

        A guarded pass's set-up is its kernel's build, guardrails included.
        """
        _import(self.MODULES)
        log = Log()
        guard_ns, guard_raw_ns = [], []
        _, steps, bare, _, _ = self.drive(seed, False, seconds)
        bare_lap = _total(steps)
        for _ in range(passes):
            build, steps, stats, crashes, checks = self.drive(
                seed, True, seconds)
            log.setups.append(build)
            for step in steps:
                log.step(step)
            log.sim_s += seconds
            log.sim_ios += stats[0]
            guarded_lap = _total(steps)
            guard_ns.append((guarded_lap.ns - bare_lap.ns) / stats[0])
            guard_raw_ns.append((guarded_lap.raw_ns - bare_lap.raw_ns)
                                / stats[0])
            log.check(stats == bare,
                      "guarded run perturbed the kernel: {} != {}".format(
                          stats, bare))
            log.check(crashes == 0, "{} rule/action crashes".format(crashes))
            log.info["checks"] = checks
        log.info.update(guard_ns_per_io=guard_ns,
                        guard_raw_ns_per_io=guard_raw_ns)
        return log

    def probe(self, seed, workdir, reference):
        """The sampled program tracer's overhead on the guarded kernel."""
        from repro.trace import CATEGORIES, TRACER

        TRACER.start(sample={category: 64 for category in CATEGORIES})
        try:
            sampled = _total(self.drive(seed, True)[1])
        finally:
            TRACER.stop()
        detail = {
            "guard_raw_ns_per_io": median(reference.info[
                "guard_raw_ns_per_io"]),
            "sampled_raw_overhead_x": (sampled.raw_ns * 1e-9
                                       / reference.busy_raw_s),
        }
        return {
            "core.monitor.guard_ns_per_io":
                median(reference.info["guard_ns_per_io"]),
            "trace.sampled_overhead_x": sampled.ns * 1e-9 / reference.busy_s,
        }, detail, []


# ---------------------------------------------------------------------------
# scenario_zoo


class ScenarioZoo:
    """Every quick registry scenario, inline, in registry order."""

    name = "scenario_zoo"
    SHARDED = False
    PASS_S = 4.0
    MIN_PASSES = 1
    #: Registry verdicts are pinned to each scenario's own seed:
    #: ``storage/burst/clean`` stops matching at other seeds.  The zoo's
    #: inputs therefore do not depend on the benchmark seed.
    SEED_PINNED = True
    #: ``run_scenario`` imports the kernel and the domain rigs on first use
    MODULES = ("repro.kernel", "repro.scenarios.domains",
               "repro.scenarios.registry", "repro.scenarios.spec")

    def run(self, seed, passes, workdir, limit=None):
        """``passes`` passes over the registry; a pass's set-up builds it."""
        _import(self.MODULES)
        from repro.scenarios.registry import all_scenarios
        from repro.scenarios.spec import run_scenario

        log = Log()
        domain_s = {}
        counters = {}
        for _ in range(passes):
            watch = Stopwatch()
            specs = [spec for spec in all_scenarios() if spec.quick][:limit]
            log.setups.append(watch.lap())
            for spec in specs:
                result = run_scenario(spec)
                elapsed = watch.lap()
                log.step(elapsed)
                log.sim_s += spec.duration_s
                for domain, entry in result["domains"].items():
                    domain_s[domain] = (domain_s.get(domain, 0.0)
                                        + elapsed.ns * 1e-9)
                    totals = counters.setdefault(domain, {})
                    for key, value in entry["counters"].items():
                        totals[key] = totals.get(key, 0) + value
                log.sim_ios += result["domains"].get("storage", {}).get(
                    "counters", {}).get("completed_ios", 0)
                log.check(result["matched"],
                          "{}: verdicts {} != expected {}".format(
                              spec.name, result["verdicts"],
                              result["expected"]))
        log.info.update(seed_pinned=self.SEED_PINNED, domain_s=domain_s,
                        counters=counters)
        return log

    def probe(self, seed, workdir, reference):
        values = {}
        for domain, keys in ZOO_COUNTERS.items():
            counters = reference.info["counters"].get(domain, {})
            for key in keys:
                values["kernel.{}.{}".format(domain, key)] = counters.get(
                    key, 0)
            values["kernel.{}.scenario_s".format(domain)] = (
                reference.info["domain_s"].get(domain, 0.0))
        return values, {}, []


#: The zoo rig counters reported per domain (``DomainRig.counters()``).
ZOO_COUNTERS = {
    "cache": ("accesses", "hits"),
    "mm": ("accesses", "hits"),
    "net": ("epochs",),
    "sched": ("dispatches",),
}

WORKLOADS = {workload.name: workload for workload in
             (FleetRollout(), ServeSoak(), GuardedIo(), ScenarioZoo())}


def import_probe(name):
    """Entry point of an import probe, run in a fresh interpreter.

    Prints the calibrated and the raw seconds the imports of workload
    ``name``'s modules took.
    """
    with sampling():
        watch = Stopwatch()
        _import(WORKLOADS[name].MODULES)
        lap = watch.lap()
    print(lap.ns * 1e-9, lap.raw_ns * 1e-9)
