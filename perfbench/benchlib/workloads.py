"""The three workloads.  Each returns a Result whose `metrics` hold the
end-to-end metrics (untraced run) or the per-layer metrics (traced run)
by name, without units; run.py attaches units from BENCHMARK.json."""

import json
import os
import re
import shutil
import signal
import subprocess
import time

from . import jobs as jl
from .stats import geomean, median, percentile

GOLDEN = "tests/golden"


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # one line per failed check (stderr)
        self.metrics = {}
        self.meta = {}

    def fail(self, what, count=1):
        self.failed += count
        self.problems.append(what)


class Ctx:
    def __init__(self, bindir, work, seed, seconds, traced):
        self.work = work
        self.seed, self.seconds, self.traced = seed, seconds, traced
        self.cachier = os.path.join(bindir, "cachier")
        self.cachierd = os.path.join(bindir, "cachierd")
        self.cicobench = os.path.join(bindir, "cicobench")
        self.spans = os.path.join(bindir, "traces")


def cpu_of(ru):
    return ru.ru_utime + ru.ru_stime


def spawn(argv, stdout_path=None):
    """Runs one child to completion.  Returns (exit code, stdout bytes,
    seconds, rusage of the child)."""
    t0 = time.perf_counter()
    with open(stdout_path, "wb") if stdout_path else open(os.devnull) as f:
        p = subprocess.Popen(argv, stdout=f if stdout_path else subprocess.PIPE,
                             stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        try:
            out = b"" if stdout_path else p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:  # the run's time limit: stop the child
            p.kill()
            p.wait()
            raise
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.stdout:
        p.stdout.close()
    return p.returncode, out, elapsed, ru


def run_harness(ctx, args, budget_s):
    """Runs a cicobench subcommand in its own session and returns its
    JSON result (the whole session is killed if it overruns)."""
    out = os.path.join(ctx.work, f"{args[0]}-result.json")
    argv = [ctx.cicobench] + list(args) + ["--out", out]
    p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = p.wait(timeout=budget_s)
    except BaseException:  # overran, or the run's time limit fired
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"cicobench {args[0]} exited {rc}")
    with open(out) as f:
        return json.load(f)


# Counts fixed by the inputs: every traced pass should read the same value.
DETERMINISTIC = ("sim.runs", "sim.boundary_rounds", "proto.traps",
                 "proto.write_faults", "proto.directives",
                 "proto.prefetch_issued", "proto.prefetch_useful",
                 "mem.misses", "net.messages", "cachier.plan_calls",
                 "cachier.trace_misses", "trace.bytes", "store.objects_new",
                 "lang.parse_calls", "analysis.fix_passes",
                 "analysis.diagnostics", "srcann.inserted", "srcann.dropped",
                 "obs.report_bytes", "daemon.completed", "daemon.cache_hits")


def layer_medians(r, passes):
    """Median of each per-layer value over the traced passes.  A
    deterministic count that differs between passes is drift: counted in
    bench.count_drift and named in the meta line."""
    keys = sorted({k for p in passes for k in p["layers"]})
    drift = [k for k in DETERMINISTIC
             if len({p["layers"].get(k, 0.0) for p in passes}) > 1]
    r.meta.setdefault("host_dependent", []).extend(
        f"traced passes: {k}" for k in drift)
    m = {k: median([p["layers"].get(k, 0.0) for p in passes]) for k in keys}
    m["bench.count_drift"] = float(len(drift))
    return m


def derive_layers(m):
    """Ratios computed where the work happened (from the raw counts)."""
    refs = m.get("sim.refs", 0.0)
    m["sim.ns_per_ref"] = m.get("sim.run_s", 0.0) / refs * 1e9 if refs else 0.0
    issued = m.pop("proto.prefetch_issued", 0.0)
    useful = m.pop("proto.prefetch_useful", 0.0)
    m["proto.prefetch_useful_ratio"] = useful / issued if issued else 0.0
    total = m.pop("store.objects_total", 0.0)
    new = m.get("store.objects_new", 0.0)
    m["store.dedup_ratio"] = (total - new) / total if total else 0.0
    completed = m.pop("daemon.completed", 0.0)
    hits = m.pop("daemon.cache_hits", 0.0)
    m["daemon.hit_ratio"] = hits / completed if completed else 0.0
    return m


def run_on_one_cpu(r):
    """Runs the rest of the workload, and every process it starts, on
    one of the CPUs this process may use.  For the workloads that run one
    job at a time: the simulator runs one host thread per simulated node
    in lock-step windows, and spread over several vCPUs every window waits
    for the slowest one, so such a run slows 1.5-3.5x in wall time
    whenever the hypervisor takes CPU time for other tenants (and
    cross-CPU wake-ups cost about 2.5x the CPU time of the same
    simulation on one CPU).  On one CPU it slows only in proportion to
    the time taken."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    r.meta["run_cpus"] = 1


def pass_estimate(passes, job_times):
    """One pass over the fixed job list, estimated job by job: the sum
    over jobs of each job's median time across the run's passes.  Host
    stalls last seconds, so a median per job filters a stall that hits
    one job of a pass, where a median of whole passes would not."""
    per_job = {}
    for p in passes:
        for job, secs in job_times(p):
            per_job.setdefault(job, []).append(secs)
    return {job: median(xs) for job, xs in per_job.items()}


def class_latencies(samples):
    """jobs.<cls>_p50_ms / _p90_ms / _samples for each latency class
    (a percentile reads 0 when too few samples lie beyond it)."""
    m = {}
    for cls, xs in samples.items():
        m[f"jobs.{cls}_samples"] = float(len(xs))
        for p in (50, 90):
            v = percentile(xs, p)
            m[f"jobs.{cls}_p{p}_ms"] = v if v is not None else 0.0
    return m


STAT_RE = re.compile(rb"^(\w+):\s+(\d+)", re.M)
CYCLES_RE = re.compile(rb"execution time:\s+(\d+) cycles")


# --- fig6 -------------------------------------------------------------------

def fig6(ctx):
    r = Result()
    run_on_one_cpu(r)
    doc = run_harness(ctx, ["fig6", "--seed", str(ctx.seed),
                            "--seconds", str(ctx.seconds),
                            "--trace", "1" if ctx.traced else "0",
                            "--spans", os.path.join(ctx.spans, "fig6.json")],
                      budget_s=ctx.seconds * 3 + 60)
    passes = doc["passes"]
    r.attempted = doc["attempted"]
    for f in doc["failures"]:
        r.fail(f)
    first = {(x["app"], x["variant"]): x["cycles"] for x in passes[0]["results"]}
    apps = [a["app"] for a in passes[0]["apps"]]
    norm = {a: first[(a, "cachier")] / first[(a, "none")] for a in apps}
    norm_pf = {a: first[(a, "cachier+pf")] / first[(a, "none")] for a in apps}
    r.meta.update(doc["meta"])
    r.meta["norm_time_per_app"] = {
        a: {"cachier": round(norm[a], 4), "cachier+pf": round(norm_pf[a], 4)}
        for a in apps}
    r.meta["pass_wall_s"] = [round(p["wall_s"], 3) for p in passes]
    r.meta["pass_peak_rss_mb"] = [round(p["peak_rss_kb"] / 1024.0, 1)
                                  for p in passes]
    r.meta["host_dependent"] = doc["host_dependent"]
    r.meta["cycle_drifts"] = doc["cycle_drifts"]
    if not ctx.traced:
        wall = sum(pass_estimate(
            passes, lambda p: ((a["app"], a["wall_s"]) for a in p["apps"])
        ).values())
        r.metrics = {
            "setup_s": median([p["setup_s"] for p in passes]),
            "wall_s": wall,
            "cpu_s": median([p["cpu_s"] for p in passes]),
            # After the first pass: the peak grows with the pass count.
            "peak_rss_mb": passes[0]["peak_rss_kb"] / 1024.0,
            "norm_time": geomean(list(norm.values())),
            "sim_refs_per_s": median([p["refs"] for p in passes]) / wall,
        }
        return r
    traced = doc["traced"]
    m = derive_layers(layer_medians(r, traced))
    m["tracing.overhead_ratio"] = (median([p["wall_s"] for p in traced]) /
                                   median([p["wall_s"] for p in passes]))
    m["bench.glue_s"] = m.pop("bench.job_s", 0.0)
    r.metrics = m
    r.meta["traced_passes"] = len(traced)
    return r


# --- cli-mix ----------------------------------------------------------------

def _golden_static(job):
    """tests/golden/static/<prog>_n<N>.mp for plain --static output."""
    if job["cmd"] != "annotate-static" or job["prefetch"]:
        return None
    name = os.path.basename(job["prog"])[:-3]
    path = f"{GOLDEN}/static/{name}_n{job['nodes']}.mp"
    return path if os.path.exists(path) else None


def _exit_ok(job, rc):
    """Lint of a hand-annotated defect variant exits as its golden
    diagnostic document says; any other lint may warn (exit 1) but not
    fail; every other job exits 0."""
    if job["cmd"] != "lint":
        return rc == 0
    if "/hand/" in job["prog"]:
        name = os.path.basename(job["prog"])[:-3]
        with open(f"{GOLDEN}/lint/{name}.json") as f:
            return rc == json.load(f)["summary"]["exit"]
    return rc in (0, 1)


def cli_pass(ctx, jobs, pass_dir):
    """One closed-loop pass over the job list, one `cachier` child at a
    time.  Returns per-job records and the pass's wall and CPU time."""
    recs = []
    self0 = os.times()
    child_cpu = 0.0
    peak_kb = 0
    t0 = time.perf_counter()
    for job in jobs:
        argvs = jl.cli_argv(job, ctx.cachier, pass_dir)
        rc, out, secs = 0, b"", 0.0
        for k, argv in enumerate(argvs):
            # The trace job writes the trace to a file for `store put`.
            to_file = (f"{pass_dir}/trace-{job['id']}.txt"
                       if job["cmd"] == "trace" and k == 0 else None)
            rc, out, dt, ru = spawn(argv, to_file)
            secs += dt
            child_cpu += cpu_of(ru)
            peak_kb = max(peak_kb, ru.ru_maxrss)
            if rc != 0:
                break
        recs.append({"job": job, "rc": rc, "out": out, "ms": secs * 1e3})
    wall = time.perf_counter() - t0
    self1 = os.times()
    cpu = (self1.user - self0.user) + (self1.system - self0.system) + child_cpu
    return recs, wall, cpu, peak_kb


def check_cli_outputs(ctx, r, first, work):
    """Oracles on one pass's distinct outputs.  Returns the ids of jobs
    whose output is wrong."""
    bad = set()
    lint_dir = os.path.join(work, "lint-check")
    os.makedirs(lint_dir, exist_ok=True)
    pairs = []
    for rec in first:
        job, out = rec["job"], rec["out"]
        i = job["id"]
        golden = _golden_static(job)
        if golden:
            with open(golden, "rb") as f:
                if f.read() != out:
                    bad.add(i)
                    r.problems.append(f"{job['prog']} -n {job['nodes']}: "
                                      f"--static output differs from {golden}")
        if job["cmd"] == "lint-fix":
            golden = f"{GOLDEN}/fix/{os.path.basename(job['prog'])}"
            with open(golden, "rb") as f:
                if f.read() != out:
                    bad.add(i)
                    r.problems.append(f"{job['prog']}: lint --fix output "
                                      f"differs from {golden}")
        if job["cmd"] in ("annotate", "annotate-static") and rec["rc"] == 0:
            path = os.path.join(lint_dir, f"{i}.mp")
            with open(path, "wb") as f:
                f.write(out)
            rc, _, _, _ = spawn([ctx.cachier, "lint", path])
            if rc == 2:
                bad.add(i)
                r.problems.append(f"job {i}: annotated output has lint errors")
        if job["cmd"] == "trace" and rec["rc"] == 0:
            got = os.path.join(lint_dir, f"get-{i}.bin")
            with open(got, "wb") as f:
                f.write(out)
            pairs.append([rec["trace_file"], got])
    if pairs:
        pairs_file = os.path.join(work, "trace-pairs.json")
        with open(pairs_file, "w") as f:
            json.dump(pairs, f)
        doc = run_harness(ctx, ["trace-check", "--pairs", pairs_file],
                          budget_s=60)
        for path in doc["mismatched"]:
            i = int(os.path.basename(path)[4:-4])
            bad.add(i)
            r.problems.append(f"job {i}: store get did not return the trace "
                              f"that was put")
    return bad


def score_cli(r, passes, bad):
    """Counts every job execution; it fails on an unexpected exit code,
    on stdout that differs from the job's first run, or when its output
    failed an oracle (`bad` holds those job ids)."""
    first_out = {rec["job"]["id"]: rec["out"] for rec in passes[0]["recs"]}
    for p in passes:
        for rec in p["recs"]:
            job = rec["job"]
            r.attempted += 1
            if not _exit_ok(job, rec["rc"]):
                r.fail(f"job {job['id']} ({job['cmd']} {job['prog']} "
                       f"-n {job['nodes']}) exited {rec['rc']}")
            elif rec["out"] != first_out[job["id"]]:
                r.fail(f"job {job['id']}: repeated job printed other bytes")
            elif job["id"] in bad:
                r.failed += 1


def _compare_ratio(out):
    base, anno = (int(c) for c in CYCLES_RE.findall(out))
    return anno / base


def _static_norm_time(ctx, first, work):
    """Cycles of each `annotate --static` output over its source's, both
    through `cachier run` (geomean)."""
    ratios = []
    base_cycles = {}
    for rec in first:
        job = rec["job"]
        if job["cmd"] != "annotate-static":
            continue
        key = (job["prog"], job["nodes"])
        if key not in base_cycles:
            _, out, _, _ = spawn([ctx.cachier, "run", job["prog"],
                                  "-n", str(job["nodes"])])
            base_cycles[key] = int(CYCLES_RE.search(out).group(1))
        path = os.path.join(work, f"static-{job['id']}.mp")
        with open(path, "wb") as f:
            f.write(rec["out"])
        _, out, _, _ = spawn([ctx.cachier, "run", path, "-n", str(job["nodes"])])
        ratios.append(int(CYCLES_RE.search(out).group(1)) / base_cycles[key])
    return geomean(ratios)


SETUP_TRIALS = 5  # set-ups per cli-mix pass; setup_s is their median


def cli_mix(ctx):
    r = Result()
    run_on_one_cpu(r)
    deadline = time.perf_counter() + (ctx.seconds / 2 if ctx.traced
                                      else ctx.seconds)
    passes = []
    while not passes or time.perf_counter() < deadline:
        pass_dir = os.path.join(ctx.work, f"pass{len(passes)}")
        os.makedirs(pass_dir)
        setups = []
        for _ in range(SETUP_TRIALS):
            s0 = time.perf_counter()
            jobs = jl.cli_mix(ctx.seed)
            spawn([ctx.cachier, "lint", jl.prog_path("reduce")])  # warm-up
            setups.append(time.perf_counter() - s0)
        recs, wall, cpu, peak = cli_pass(ctx, jobs, pass_dir)
        for rec in recs:
            rec["trace_file"] = f"{pass_dir}/trace-{rec['job']['id']}.txt"
        passes.append({"setups": setups, "wall": wall, "cpu": cpu,
                       "peak": peak, "recs": recs})

    first = passes[0]["recs"]
    bad = check_cli_outputs(ctx, r, first, ctx.work)
    first_out = {rec["job"]["id"]: rec["out"] for rec in first}
    score_cli(r, passes, bad)

    job_s = pass_estimate(passes, lambda p: ((rec["job"]["id"], rec["ms"] / 1e3)
                                            for rec in p["recs"]))
    compares = [rec for rec in first if rec["job"]["cmd"] == "compare"]
    refs = sum(_compare_refs(rec["out"]) for rec in compares)
    r.meta["pass_wall_s"] = [round(p["wall"], 3) for p in passes]
    samples = {"sim": [], "static": []}
    for p in passes:
        for rec in p["recs"]:
            samples[rec["job"]["cls"]].append(rec["ms"])
    if not ctx.traced:
        r.metrics = {
            "setup_s": median([s for p in passes for s in p["setups"]]),
            "wall_s": sum(job_s.values()),
            "cpu_s": median([p["cpu"] for p in passes]),
            "peak_rss_mb": max(p["peak"] for p in passes) / 1024.0,
            "norm_time": geomean([_compare_ratio(rec["out"])
                                  for rec in first
                                  if rec["job"]["cmd"] == "compare"]),
            "sim_refs_per_s": refs / sum(job_s[rec["job"]["id"]]
                                         for rec in compares),
        }
        return r

    # Traced run: the same jobs replayed in-process, spans around each
    # layer call; the replay's stdout must equal the CLI's.
    jobs_file = os.path.join(ctx.work, "jobs.json")
    with open(jobs_file, "w") as f:
        json.dump(jl.cli_mix(ctx.seed), f)
    outs = os.path.join(ctx.work, "replay-out")
    os.makedirs(outs)
    remaining = max(1.0, deadline + ctx.seconds / 2 - time.perf_counter())
    doc = run_harness(ctx, ["replay", "--jobs", jobs_file,
                            "--seconds", str(remaining), "--work", ctx.work,
                            "--outputs", outs,
                            "--spans", os.path.join(ctx.spans, "cli-mix.json")],
                      budget_s=remaining * 3 + 60)
    r.attempted += doc["attempted"]
    if doc["failed"]:
        r.fail("replay: jobs failed in-process", doc["failed"])
    for i, out in first_out.items():
        with open(os.path.join(outs, f"{i}.out"), "rb") as f:
            if f.read() != out:
                r.fail(f"replay of job {i} printed other bytes than the CLI")
    traced = [p for p in doc["passes"] if p["traced"]]
    untraced = [p for p in doc["passes"] if not p["traced"]]
    m = derive_layers(layer_medians(r, traced))
    m["bench.glue_s"] = m.pop("bench.job_s", 0.0)
    m["tracing.overhead_ratio"] = (median([p["wall_s"] for p in traced]) /
                                   median([p["wall_s"] for p in untraced]))
    m.update(class_latencies(samples))
    m["jobs.static_norm_time"] = _static_norm_time(ctx, first, ctx.work)
    startup = [spawn([ctx.cachier, "version"])[2] * 1e3 for _ in range(21)]
    m["cli.startup_ms"] = median(startup)
    r.metrics = m
    r.meta["traced_passes"] = len(traced)
    return r


def _compare_refs(out):
    """Shared loads + stores of every stats block in `out` (one for
    `cachier run`, two for `cachier compare`)."""
    return sum(int(v) for k, v in STAT_RE.findall(out)
               if k in (b"shared_loads", b"shared_stores"))


# --- daemon-mix -------------------------------------------------------------

def check_daemon_outputs(ctx, r, distinct):
    """One-shot oracle: every distinct daemon result must equal
    `cachier <cmd>` run on the same file (annotated sources were saved
    under their request name).  Returns the outputs by request key and
    the simulated cycles of each `run` by (program, nodes, variant)."""
    outputs = {}
    cycles = {}
    for d in distinct:
        argv = [ctx.cachier, d["cmd"], d["prog"]]
        if d["cmd"] != "lint":
            argv += ["-n", str(d["nodes"])]
        rc, out, _, _ = spawn(argv)
        with open(d["out"], "rb") as f:
            got = f.read()
        outputs[d["key"]] = got
        if rc != d["exit"] or out != got:
            r.fail(f"{d['key']}: daemon result differs from one-shot cachier")
        elif d["cmd"] == "run":
            variant = "source" if d["prog"] == d["origin"] else "annotated"
            cycles[(d["origin"], d["nodes"], variant)] = int(
                CYCLES_RE.search(got).group(1))
    return outputs, cycles


def daemon_clients():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def daemon_mix(ctx):
    r = Result()
    clients = daemon_clients()
    jobs_file = os.path.join(ctx.work, "jobs.json")
    with open(jobs_file, "w") as f:
        json.dump({"clients": jl.daemon_mix(ctx.seed, clients),
                   "warmup": jl.daemon_warmup()}, f)
    doc = run_harness(ctx, ["daemon-mix", "--jobs", jobs_file,
                            "--cachierd", ctx.cachierd, "--work", ctx.work,
                            "--seconds", str(ctx.seconds),
                            "--trace", "1" if ctx.traced else "0",
                            "--spans",
                            os.path.join(ctx.spans, "daemon-mix.json")],
                      budget_s=ctx.seconds * 3 + 60)
    passes = doc["passes"]
    if doc["errors"]:
        r.fail("requests refused or lost after client retries", doc["errors"])
    if doc["mismatches"]:
        r.fail("a result differed from the first result of its request",
               doc["mismatches"])
    for p in passes:
        for q in p["requests"]:
            r.attempted += 1
            if q["cached"] != q["expect_cached"]:
                r.fail(f"{q['key']}: cached={q['cached']}, "
                       f"expected {q['expect_cached']}")
            elif not _exit_ok(q, q["exit"]):
                r.fail(f"{q['key']}: exit {q['exit']}")

    outputs, cycles = check_daemon_outputs(ctx, r, doc["distinct"])
    ratios = [c / cycles[(o, n, "source")]
              for (o, n, v), c in cycles.items() if v == "annotated"]
    untraced = [p for p in passes if not p["embedded"]]  # cachierd child
    run_s = pass_estimate(untraced, lambda p: (
        (q["key"], q["latency_ms"] / 1e3) for q in p["requests"]
        if q["cmd"] == "run" and not q["cached"]))
    refs = sum(_compare_refs(outputs[key]) for key in run_s)
    r.meta["clients"] = clients
    r.meta["pass_wall_s"] = [round(p["wall_s"], 3) for p in untraced]
    if not ctx.traced:
        r.metrics = {
            "setup_s": median([p["setup_s"] for p in untraced]),
            "wall_s": median([p["wall_s"] for p in untraced]),
            "cpu_s": median([p["cpu_s"] for p in untraced]),
            "peak_rss_mb": doc["daemon_peak_rss_kb"] / 1024.0,
            "norm_time": geomean(ratios),
            "sim_refs_per_s": refs / sum(run_s.values()),
        }
        return r

    traced = [p for p in passes if p["traced"]]
    samples = {"sim": [], "static": [], "hit": []}
    for p in untraced:
        for q in p["requests"]:
            samples["hit" if q["cached"] else q["cls"]].append(q["latency_ms"])
    m = derive_layers(layer_medians(r, traced))
    reqs = [q for p in traced for q in p["requests"]]
    for p in (50, 90):
        v = percentile([q["queue_ms"] for q in reqs], p)
        m[f"daemon.queue_wait_p{p}_ms"] = v if v is not None else 0.0
    v = percentile([q["service_ms"] for q in reqs if not q["cached"]], 50)
    m["daemon.service_p50_ms"] = v if v is not None else 0.0
    m.update(class_latencies(samples))
    embedded = [p for p in passes if p["embedded"] and not p["traced"]]
    m["tracing.overhead_ratio"] = (median([p["wall_s"] for p in traced]) /
                                   median([p["wall_s"] for p in embedded]))
    r.metrics = m
    r.meta["traced_passes"] = len(traced)
    return r


WORKLOADS = {"fig6": fig6, "cli-mix": cli_mix, "daemon-mix": daemon_mix}


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
