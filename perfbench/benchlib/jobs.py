"""Seeded job lists for the cli-mix and daemon-mix workloads.

Every list holds a fixed multiset of jobs: each bundled MiniPar program
at each node count it is valid for, under every command of the
workload.  The seed decides the order the jobs arrive in (and, for
daemon-mix, where each repeat falls), never which jobs there are, so a
pass costs the same on every seed and the run-to-run spread measures the
system, not the draw.
"""

import random

EXAMPLES = "examples/minipar"
PROGRAMS = ("barnes", "jacobi", "matmul44", "mp3d", "ocean", "reduce",
            "tomcatv")
# matmul44 hard-codes a 4x4 block grid of 8 workers: other counts fail.
NODE_COUNTS = {p: (4, 8, 16, 32) for p in PROGRAMS}
NODE_COUNTS["matmul44"] = (8,)
HAND = ("barnes_missed", "mm_redundant", "mp3d_early_checkin")

SIM, STATIC = "sim", "static"


def prog_path(name):
    return f"{EXAMPLES}/{name}.mp"


def hand_path(name):
    return f"{EXAMPLES}/hand/{name}.mp"


def program_nodes():
    return [(p, n) for p in PROGRAMS for n in NODE_COUNTS[p]]


def _job(cls, cmd, prog, nodes=4, **extra):
    job = {"cls": cls, "cmd": cmd, "prog": prog, "nodes": nodes}
    job.update(extra)
    return job


def cli_mix(seed):
    """One cli-mix pass: sim jobs (annotate, compare --report, trace then
    store put/get) and static jobs (annotate --static [--prefetch], lint,
    lint --fix) over every valid (program, nodes), in seeded order."""
    jobs = []
    for p, n in program_nodes():
        path = prog_path(p)
        jobs.append(_job(SIM, "annotate", path, n, prefetch=False))
        jobs.append(_job(SIM, "compare", path, n, prefetch=False))
        jobs.append(_job(SIM, "trace", path, n, prefetch=False))
        jobs.append(_job(STATIC, "annotate-static", path, n, prefetch=False))
        jobs.append(_job(STATIC, "annotate-static", path, n, prefetch=True))
    for p in PROGRAMS:
        jobs.append(_job(STATIC, "lint", prog_path(p), prefetch=False))
    for h in HAND:
        jobs.append(_job(STATIC, "lint", hand_path(h), prefetch=False))
        jobs.append(_job(STATIC, "lint-fix", hand_path(h), prefetch=False))
    random.Random(seed).shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def cli_argv(job, cachier, pass_dir):
    """The `cachier` command lines for one cli-mix job (three for the
    trace job: trace, store put, store get)."""
    prog, n, i = job["prog"], str(job["nodes"]), job["id"]
    cmd = job["cmd"]
    if cmd == "annotate":
        return [[cachier, "annotate", prog, "-n", n]]
    if cmd == "compare":
        return [[cachier, "compare", prog, "-n", n,
                 "--report", f"{pass_dir}/report-{i}.json"]]
    if cmd == "trace":
        store, name = f"{pass_dir}/store", f"trace-{i}.txt"
        return [[cachier, "trace", prog, "-n", n],
                [cachier, "store", "put", store, f"{pass_dir}/{name}",
                 "--name", name],
                [cachier, "store", "get", store, name]]
    if cmd == "annotate-static":
        argv = [cachier, "annotate", "--static", prog, "-n", n]
        return [argv + ["--prefetch"] if job["prefetch"] else argv]
    if cmd == "lint":
        return [[cachier, "lint", prog]]
    if cmd == "lint-fix":
        return [[cachier, "lint", "--fix", prog]]
    raise ValueError(f"unknown cli-mix command {cmd}")


def daemon_mix(seed, clients):
    """Per-client daemon-mix job lists.

    Distinct jobs: annotate (chained with a run of the annotated output),
    run and plan for every (program, nodes) -- the sim class -- and lint
    of every program -- the static class.  They are dealt to the clients
    in a fixed round-robin over (command, nodes, program), so every
    client gets the same share of the work on every seed.  Each client
    then submits its jobs in seeded order and repeats every one of them
    once, at a seeded later position: half of all jobs are repeats, and a
    repeat always follows its original on the same closed-loop client, so
    it must be a cache hit."""
    distinct = []
    for cmd in ("annotate", "run", "plan"):
        for n in (4, 8, 16, 32):
            for p in PROGRAMS:
                if n in NODE_COUNTS[p]:
                    distinct.append(_job(SIM, cmd, prog_path(p), n,
                                         chain=cmd == "annotate"))
    for p in PROGRAMS:
        distinct.append(_job(STATIC, "lint", prog_path(p), chain=False))
    for h in HAND:
        distinct.append(_job(STATIC, "lint", hand_path(h), chain=False))

    rng = random.Random(seed)
    lists = [distinct[c::clients] for c in range(clients)]
    next_id = 0
    out = []
    for own in lists:
        own = list(own)
        rng.shuffle(own)
        seq = [dict(j, repeat=False) for j in own]
        for j in own:
            at = next(k for k, s in enumerate(seq)
                      if not s["repeat"] and s["prog"] == j["prog"]
                      and s["cmd"] == j["cmd"] and s["nodes"] == j["nodes"])
            seq.insert(rng.randint(at + 1, len(seq)), dict(j, repeat=True))
        for job in seq:
            job["id"] = next_id
            next_id += 1
        out.append(seq)
    return out


def daemon_warmup():
    """The untimed warm-up job (its name keeps it out of the pass's keys).
    A lint: no node threads, so set-up time is the daemon's start-up and
    not a small simulation's sensitivity to host scheduling."""
    return _job(STATIC, "lint", prog_path("reduce"), 4, chain=False,
                repeat=False, id=0)
