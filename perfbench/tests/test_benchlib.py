"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root.  The oracle tests that need the built
`cachier` / `cicobench` binaries (from a previous `perfbench/run.py`
run, in .bench_build/) are skipped when those are missing.
"""

import collections
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import jobs, stats, workloads  # noqa: E402

BIN = os.path.join(ROOT, ".bench_build")


def job_key(j):
    return (j["cmd"], j["prog"], j["nodes"], j.get("prefetch"),
            j.get("chain"))


class GeneratorTest(unittest.TestCase):
    def test_cli_mix_deterministic_per_seed(self):
        self.assertEqual(jobs.cli_mix(7), jobs.cli_mix(7))
        self.assertNotEqual(jobs.cli_mix(7), jobs.cli_mix(8))

    def test_cli_mix_same_jobs_on_every_seed(self):
        def multiset(seed):
            return collections.Counter(job_key(j) for j in jobs.cli_mix(seed))
        self.assertEqual(multiset(1), multiset(2))

    def test_only_valid_node_counts(self):
        for j in jobs.cli_mix(3):
            name = os.path.basename(j["prog"])[:-3]
            if j["cmd"] not in ("lint", "lint-fix"):
                self.assertIn(j["nodes"], jobs.NODE_COUNTS[name])
        for client in jobs.daemon_mix(3, 4):
            for j in client:
                if "matmul44" in j["prog"] and j["cmd"] != "lint":
                    self.assertEqual(j["nodes"], 8)

    def test_daemon_mix_deterministic_and_balanced(self):
        self.assertEqual(jobs.daemon_mix(5, 4), jobs.daemon_mix(5, 4))
        self.assertNotEqual(jobs.daemon_mix(5, 4), jobs.daemon_mix(6, 4))
        for a, b in zip(jobs.daemon_mix(5, 4), jobs.daemon_mix(6, 4)):
            # The seed reorders a client's jobs; it never moves work
            # between clients.
            self.assertEqual(sorted(map(job_key, a)), sorted(map(job_key, b)))

    def test_daemon_mix_repeats_follow_their_original(self):
        for client in jobs.daemon_mix(9, 3):
            seen = set()
            repeats = 0
            for j in client:
                if j["repeat"]:
                    repeats += 1
                    self.assertIn(job_key(j), seen)
                else:
                    self.assertNotIn(job_key(j), seen)
                    seen.add(job_key(j))
            self.assertEqual(2 * repeats, len(client))


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(90)), 90))
        self.assertIsNotNone(stats.percentile(list(range(100)), 90))
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(21)), 50), 10)

    def test_ties_do_not_count_as_beyond(self):
        self.assertIsNone(stats.percentile([1.0] * 500, 90))


def fake_rec(job, out, rc=0):
    return {"job": job, "rc": rc, "out": out, "ms": 1.0}


class OracleTest(unittest.TestCase):
    def setUp(self):
        os.chdir(ROOT)
        os.makedirs(BIN, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="test-", dir=BIN)

    def tearDown(self):
        shutil.rmtree(self.work)

    def ctx(self):
        return workloads.Ctx(BIN, self.work, 1, 1, False)

    def test_corrupted_fix_output_counts_as_failed(self):
        golden = "tests/golden/fix/mm_redundant.mp"
        with open(golden, "rb") as f:
            good = f.read()
        job = {"id": 0, "cls": "static", "cmd": "lint-fix", "nodes": 4,
               "prog": jobs.hand_path("mm_redundant"), "prefetch": False}
        for out, want in ((good, 0), (good.replace(b"check", b"chekc"), 2)):
            r = workloads.Result()
            recs = [fake_rec(job, out)]
            bad = workloads.check_cli_outputs(self.ctx(), r, recs, self.work)
            workloads.score_cli(r, [{"recs": recs}, {"recs": recs}], bad)
            self.assertEqual((r.attempted, r.failed), (2, want))

    def test_repeat_with_other_bytes_counts_as_failed(self):
        job = {"id": 3, "cls": "static", "cmd": "lint", "nodes": 4,
               "prog": jobs.prog_path("jacobi"), "prefetch": False}
        r = workloads.Result()
        workloads.score_cli(r, [{"recs": [fake_rec(job, b"a")]},
                                {"recs": [fake_rec(job, b"b")]}], set())
        self.assertEqual((r.attempted, r.failed), (2, 1))

    @unittest.skipUnless(os.path.exists(os.path.join(BIN, "cicobench")),
                         "needs a built .bench_build")
    def test_corrupted_store_get_counts_as_failed(self):
        ctx = self.ctx()
        trace = os.path.join(self.work, "t.txt")
        rc, out, _, _ = workloads.spawn(
            [ctx.cachier, "trace", jobs.prog_path("jacobi"), "-n", "4"], trace)
        self.assertEqual(rc, 0)
        store = os.path.join(self.work, "store")
        workloads.spawn([ctx.cachier, "store", "put", store, trace,
                         "--name", "t"])
        _, got, _, _ = workloads.spawn([ctx.cachier, "store", "get", store,
                                        "t"])
        job = {"id": 5, "cls": "sim", "cmd": "trace", "nodes": 4,
               "prog": jobs.prog_path("jacobi"), "prefetch": False}
        for out, want in ((got, set()), (got[:-1] + b"\x00", {5})):
            rec = dict(fake_rec(job, out), trace_file=trace)
            r = workloads.Result()
            self.assertEqual(
                workloads.check_cli_outputs(ctx, r, [rec], self.work), want)

    @unittest.skipUnless(os.path.exists(os.path.join(BIN, "cachier")),
                         "needs a built .bench_build")
    def test_corrupted_daemon_result_counts_as_failed(self):
        ctx = self.ctx()
        prog = jobs.prog_path("jacobi")
        _, out, _, _ = workloads.spawn([ctx.cachier, "run", prog, "-n", "4"])
        for data, want in ((out, 0), (out.replace(b"4", b"5", 1), 1)):
            path = os.path.join(self.work, "result.out")
            with open(path, "wb") as f:
                f.write(data)
            r = workloads.Result()
            workloads.check_daemon_outputs(ctx, r, [{
                "key": "run", "cmd": "run", "prog": prog, "origin": prog,
                "nodes": 4, "exit": 0, "out": path}])
            self.assertEqual(r.failed, want)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_are_unique(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


if __name__ == "__main__":
    unittest.main()
