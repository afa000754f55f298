#!/usr/bin/env python3
"""Cachier benchmark: one command, one named workload, one seed.

    python3 perfbench/run.py --workload fig6|cli-mix|daemon-mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the repository's
libraries, `cachier`, `cachierd` and the `cicobench` harness (Release)
into .bench_build/.  The workload then runs for about S seconds, its
outputs are checked, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with --trace 1 they are its per-layer metrics, from a
run that also records spans (written to .bench_build/traces/).  A
`# meta` line before it carries the run's context (host cores, the
host's steal share and speed probe, SIMD dispatch level, build type,
compiler, sample counts, the paper's Fig. 6 ratios).  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import stats, workloads  # noqa: E402

BUILD_DIR = ".bench_build"
BUILD_TYPE = "Release"
RUN_LIMIT_S = 170  # a run that has not finished by then is a failure
# Above this share of the VM's CPU time taken by the hypervisor for other
# tenants, the run's wall-time metrics are marked not comparable.
STEAL_LIMIT = 0.05


def build(root):
    """Configures (once) and builds the benchmark package; build output
    goes to .bench_build/build.log."""
    bindir = os.path.join(root, BUILD_DIR)
    os.makedirs(bindir, exist_ok=True)
    log_path = os.path.join(bindir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bindir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], capture_output=True).returncode == 0 else []
        steps.append(["cmake", "-S", HERE, "-B", bindir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + gen)
    steps.append(["cmake", "--build", bindir, "-j", jobs])
    with open(log_path, "ab") as log:
        for argv in steps:
            if subprocess.run(argv, stdout=log, stderr=log,
                              stdin=subprocess.DEVNULL).returncode != 0:
                # A failed configure must not leave a cache behind.
                if argv[1] == "-S":
                    cache = os.path.join(bindir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                sys.exit(2)
    return bindir


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def speed_probe_ms():
    """Median milliseconds of a fixed single-threaded loop over 5 trials.
    The host's speed drifts (other tenants on the same cores) without
    showing as steal; runs whose probes differ are not comparable either."""
    trials = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        trials.append((time.perf_counter() - t0) * 1e3)
    return stats.median(trials)


def on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S}s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    os.chdir(root)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build(root)
    cores = len(os.sched_getaffinity(0))

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)
    work = os.path.join(BUILD_DIR, "work", args.workload)
    workloads.reset_dir(work)
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    ctx = workloads.Ctx(BUILD_DIR, work, args.seed, args.seconds,
                        bool(args.trace))
    probe0 = speed_probe_ms()
    t0 = time.perf_counter()
    ticks0 = cpu_ticks()
    res = workloads.WORKLOADS[args.workload](ctx)
    ticks1 = cpu_ticks()
    probes = [round(probe0, 3), round(speed_probe_ms(), 3)]
    signal.alarm(0)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name == "ok_ratio":
            value = (res.attempted - res.failed) / res.attempted
        elif name in res.metrics:
            value = res.metrics[name]
        elif args.trace:
            value = 0.0  # the layer did no work in this workload
        else:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    for line in res.problems[:50]:
        sys.stderr.write(f"perfbench: FAILED: {line}\n")
    meta = dict(res.meta, workload=args.workload, seed=args.seed,
                trace=args.trace, host_cores=cores,
                build_type=BUILD_TYPE, run_s=time.perf_counter() - t0,
                host_probe_ms=probes,
                note="paper Fig. 6 ratios are context only; the simulator's "
                     "cycle model is otherwise unvalidated")
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Share of the VM's CPU time the hypervisor gave to others.  The
        # thread-per-node simulation slows 2-3x in wall time (CPU time
        # unchanged) when it is high, so such a run's wall_s, setup_s and
        # sim_refs_per_s cannot be compared with a calm run's.
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        meta["host_steal_share"] = round(steal, 4)
        meta["wall_comparable"] = steal <= STEAL_LIMIT
        if steal > STEAL_LIMIT:
            sys.stderr.write(
                f"perfbench: warning: the hypervisor took {steal:.0%} of "
                f"this VM's CPU time (limit {STEAL_LIMIT:.0%}); wall-time "
                f"metrics of this run are not comparable\n")
    print("# meta " + json.dumps(meta, sort_keys=True))
    workloads.reset_dir(work)
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
