"""Tiny-size smoke test of the wall-clock benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import timing  # noqa: E402
from layers import Layers, layer_metrics  # noqa: E402
from timing import Stopwatch, sampling, tail  # noqa: E402
from workloads import WORKLOADS, FleetRollout, GuardedIo, Log  # noqa: E402

TINY = {
    "fleet_rollout": {"hosts": 2},
    "serve_soak": {"hosts": 2, "rounds": 3, "reads": 2},
    "guarded_io": {"seconds": 4},
    "scenario_zoo": {"limit": 3},
}


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as handle:
        return [metric["name"] for metric in json.load(handle)[kind]]


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_its_output_checks(name, tmp_path):
    log = WORKLOADS[name].run(7, 1, str(tmp_path), **TINY[name])
    assert log.failures == []
    assert log.attempted >= 1
    assert log.busy_s > 0 and log.sim_s > 0 and log.steps_ms
    assert log.busy_raw_s > 0 and len(log.steps_raw_ms) == len(log.steps_ms)
    assert len(log.setups) == 1


def test_traced_pass_reports_only_declared_layer_metrics(tmp_path):
    names = set(declared("per_layer"))
    with Layers() as layers:
        log = WORKLOADS["serve_soak"].run(7, 1, str(tmp_path),
                                          **TINY["serve_soak"])
    values, _ = layer_metrics(layers, log)
    assert values["service.store.commit_ms_p50"] > 0
    assert values["fleet.worker.ipc_bytes_per_round"] > 0
    reference = WORKLOADS["scenario_zoo"].run(7, 1, str(tmp_path), limit=3)
    zoo, _, _ = WORKLOADS["scenario_zoo"].probe(7, str(tmp_path), reference)
    assert set(values) | set(zoo) | {
        "bench.trace_overhead_x", "fleet.scaling_ratio",
        "service.query.dash_ms_p50", "core.monitor.guard_ns_per_io",
        "trace.sampled_overhead_x"} == names


def test_layers_restore_the_wrapped_methods():
    from repro.core.monitor import GuardrailMonitor

    original = GuardrailMonitor.__dict__["check"]
    with Layers() as layers:
        GuardedIo().drive(3, True, seconds=2)
        assert GuardrailMonitor.__dict__["check"] is not original
    assert GuardrailMonitor.__dict__["check"] is original
    assert layers.calls["core.monitor.check"] > 1000
    assert layers.calls["sim.engine.events"] > 0


def test_scaling_probe_treats_both_sides_alike(tmp_path):
    class Tiny(FleetRollout):
        HOSTS, SCALING_HOSTS = 4, 2

    probe = Tiny()
    reference = probe.run(7, 1, str(tmp_path), hosts=Tiny.HOSTS)
    values, detail, logs = probe.probe(7, str(tmp_path), reference)
    assert len(logs) == 3 and logs[0].sim_s == reference.sim_s
    assert logs[1].sim_s == logs[2].sim_s < reference.sim_s
    big_ms, small_ms = detail["scaling"]["host_round_ms"]
    assert values["fleet.scaling_ratio"] == big_ms / small_ms
    assert all(log.failures == [] for log in logs)


def test_sampler_keeps_raw_time_and_leaves_collection_to_the_program(
        monkeypatch):
    import gc

    states = []
    kernel = timing._kernel

    def spy():
        states.append(gc.isenabled())
        return kernel()

    monkeypatch.setattr(timing, "_kernel", spy)
    with sampling():
        watch = Stopwatch()
        while len(states) < 3:
            sum(i * i for i in range(1000))
        lap = watch.lap()
    assert states and not any(states)
    assert gc.isenabled()
    assert lap.ns > 0 and lap.raw_ns > 0


def test_tail_keeps_ten_samples_beyond():
    assert tail(range(1, 22)) == (11, 100.0 * 11 / 21)
    assert tail([3, 1, 2]) == (3, 100.0)


def test_log_counts_failed_checks():
    log = Log()
    log.check(True, "fine")
    log.check(False, "broken")
    assert (log.attempted, log.failures) == (2, ["broken"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "guarded_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
