"""Wall-clock benchmark of the guardrail system, end to end and per layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload fleet_rollout --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs one untraced reference pass, then the same pass with
the layer wrappers of ``layers.py`` installed, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is the run record (sha, seed, CPUs, load, sample counts).

``--seconds`` fixes the amount of work: a run makes
``max(MIN_PASSES, round(seconds / PASS_S))`` passes over its workload,
where ``PASS_S`` is a pass's nominal length, a constant of the benchmark,
so every commit compared does the same work.  Times are
calibrated against a fixed kernel to cancel machine-speed drift (see
``timing.py``); the run record keeps the raw wall figure beside each
calibrated one.

Program code comes from ``src/``; the benchmark writes only below
``.perfbench/`` in the repository root.  See ``README.md`` beside this
file for the workloads and the definition of every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import SHARD_SIDE, Layers, layer_metrics
from timing import median, sampling, tail
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Fresh-interpreter import probes per run; ``setup_s`` adds their median
#: to the median set-up of the run's passes.
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_seconds(name):
    """Calibrated and raw import times of ``name``'s modules, per probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE), str(SRC)])
    command = [sys.executable, "-c",
               "import sys, workloads; workloads.import_probe(sys.argv[1])",
               name]
    probes = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(command, cwd=str(ROOT), env=env, check=True,
                              timeout=PROBE_TIMEOUT_S, capture_output=True,
                              text=True)
        probes.append(tuple(float(field) for field in done.stdout.split()))
    return probes


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_metrics(log, imports, calibrated):
    """The end-to-end time metrics, from calibrated or from raw laps."""
    pick = 0 if calibrated else 1
    busy = log.busy_s if calibrated else log.busy_raw_s
    steps = log.steps_ms if calibrated else log.steps_raw_ms
    setups = [lap[pick] * 1e-9 for lap in log.setups]
    return {
        "setup_s": (median([probe[pick] for probe in imports])
                    + median(setups)),
        "sim_s_per_s": log.sim_s / busy,
        "sim_ios_per_s": log.sim_ios / busy,
        "round_ms_p50": median(steps),
        "round_ms_tail": tail(steps)[0],
    }


def end_to_end(workload, args, workdir, record):
    passes = max(workload.MIN_PASSES, round(args.seconds / workload.PASS_S))
    with sampling():
        log = workload.run(args.seed, passes, workdir)
    rss = peak_rss_mb()  # before the import probes add children of their own
    imports = import_seconds(workload.name)
    values = timed_metrics(log, imports, calibrated=True)
    values.update(peak_rss_mb=rss,
                  pass_ratio=1.0 - len(log.failures) / log.attempted)
    record.update(
        passes=passes, busy_s=log.busy_s, busy_raw_s=log.busy_raw_s,
        raw=timed_metrics(log, imports, calibrated=False),
        setup={"imports_s": [probe[0] for probe in imports],
               "imports_raw_s": [probe[1] for probe in imports],
               "passes_s": [lap.ns * 1e-9 for lap in log.setups],
               "passes_raw_s": [lap.raw_ns * 1e-9 for lap in log.setups]},
        samples={"round_ms": len(log.steps_ms), "imports": len(imports),
                 "pass_setups": len(log.setups)},
        tail_percentiles={"round_ms_tail": tail(log.steps_ms)[1]})
    return values, [log]


def traced(workload, args, workdir, record):
    with sampling():
        reference = workload.run(args.seed, 1, workdir)
        with Layers() as layers:
            log = workload.run(args.seed, 1, workdir)
        logs = [reference, log]
        values, detail = layer_metrics(layers, log)
        if workload.SHARDED:
            # Shards count their own layers in their own processes: replay
            # the workload inline to see them.
            with Layers() as inline:
                replay = workload.inline_replay(args.seed, workdir)
            logs.append(replay)
            inline_values, detail["inline_replay"] = layer_metrics(inline,
                                                                   replay)
            for name in SHARD_SIDE:
                values[name] = inline_values[name]
        extras, probe_detail, probe_logs = workload.probe(args.seed, workdir,
                                                          reference)
    values.update(extras)
    logs.extend(probe_logs)
    values["bench.trace_overhead_x"] = log.busy_s / reference.busy_s
    record.update(detail, probe=probe_detail,
                  reference_busy_s=reference.busy_s,
                  reference_busy_raw_s=reference.busy_raw_s,
                  traced_busy_s=log.busy_s, traced_busy_raw_s=log.busy_raw_s)
    return values, logs


def source_digest():
    """sha256 over every file under ``src/``, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None):
    if not (SRC / "repro").is_dir():
        print("perfbench: no program source at {}".format(SRC / "repro"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv, WORKLOADS)
    workdir = ROOT / ".perfbench"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # sqlite and tempfile put their temporary files here, inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_before": os.getloadavg(),
    }
    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    values, logs = measure(workload, args, scratch, record)
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    # A layer the workload never enters reads 0: no calls, no time.
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0),
                                "unit": metric["unit"]}
               for metric in declared}
    failures = [message for log in logs for message in log.failures]
    attempted = sum(log.attempted for log in logs)
    # git runs after the measurement, so its RSS stays out of peak_rss_mb.
    record.update(loadavg_after=os.getloadavg(), failures=failures,
                  info=logs[0].info, git_sha=git_sha())
    with open(workdir / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
