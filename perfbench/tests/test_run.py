"""Checks of the benchmark's own logic: percentiles and sample counts,
which operations the timings use, crash accounting, and (through the
worker's --self-test) bitwise verification and span accounting.

    python3 -m unittest discover -s perfbench/tests -v

The worker self-test runs when the worker has been built (any run of
perfbench/run.py builds it); otherwise it is skipped.
"""

import os
import stat
import subprocess
import sys
import tempfile
import textwrap
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)


class Percentiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertAlmostEqual(run.percentile([1, 2, 3, 4], 0.9), 3.7)
        self.assertEqual(run.percentile([7], 0.9), 7)
        self.assertIsNone(run.percentile([], 0.5))

    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertIsNone(run.median([]))

    def test_samples_beyond(self):
        self.assertEqual(run.samples_beyond(100, 0.9), 10)
        self.assertEqual(run.samples_beyond(11, 0.9), 1)
        self.assertEqual(run.samples_beyond(0, 0.9), 0)

    def test_highest_resolved_percentile(self):
        self.assertEqual(run.highest_resolved_percentile(1000), 0.99)
        self.assertEqual(run.highest_resolved_percentile(101), 0.9)
        self.assertEqual(run.highest_resolved_percentile(50), 0.75)
        self.assertIsNone(run.highest_resolved_percentile(15))


def plate_op(call_s, failed=0, rhs=1, iterations=226):
    return {"ev": "op", "rhs": rhs, "failed": failed,
            "iterations": 0 if failed else iterations,
            "max_rel_residual": 0.0 if failed else 1e-5,
            "prepare_s": 0.1, "call_s": call_s, "lanes": 1, "why": ""}


class EndToEnd(unittest.TestCase):
    def make_run(self, records):
        r = run.Run()
        r.records = records
        r.peak_rss_mib = 80.0
        return r

    def test_failed_solves_are_left_out_of_timings(self):
        records = [plate_op(1.0), plate_op(1.2), plate_op(9.0, failed=1),
                   plate_op(1.1)]
        m = run.end_to_end("plate_solve", self.make_run(records))
        self.assertAlmostEqual(m["solve_s"], 1.1)
        self.assertAlmostEqual(m["time_to_solution_s"], 1.2)
        self.assertEqual(m["iterations"], 226)
        self.assertAlmostEqual(m["solves_per_s"], 3 / 3.3)
        self.assertEqual(m["setup_s"], 0.1)  # prepare ran on every call

    def test_served_percentiles_and_rates(self):
        records = [{"ev": "setup", "setup_s": s} for s in (0.3, 0.1, 0.2)]
        records.append({"ev": "phase", "phase_s": 2.0})
        for i in range(100):
            miss = i % 4 == 0
            records.append({
                "ev": "op", "kind": "miss" if miss else "hit", "rhs": 1,
                "failed": 1 if i == 99 else 0, "iterations": 10,
                "max_rel_residual": 1e-8, "latency_s": (i + 1) / 1000.0,
                "setup_s": 0.0, "solve_s": 0.001, "cache_hit": not miss,
                "retries": 0, "request_bytes": 1.0, "why": ""})
        m = run.end_to_end("served_mixed", self.make_run(records))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["requests_per_s"], 99 / 2.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 50.0)  # 1..99 ms
        self.assertAlmostEqual(m["latency_p90_ms"], 89.2)
        self.assertAlmostEqual(m["time_to_solution_s"], 0.049)


FAKE_WORKER = textwrap.dedent("""\
    #!{python}
    import os, signal, sys
    args = sys.argv[1:]
    state = args[args.index("--state-dir") + 1]
    done = args[args.index("--done") + 1]
    marker = os.path.join(state, "crashed-once")
    def out(line):
        sys.stdout.write(line + "\\n"); sys.stdout.flush()
    if "reference" not in done:
        out('{{"ev":"begin","what":"reference"}}')
        out('{{"ev":"stage","name":"reference"}}')
    out('{{"ev":"measure_start"}}')
    out('{{"ev":"begin","what":"op"}}')
    out('{{"ev":"op","rhs":1,"failed":0}}')
    out('{{"ev":"begin","what":"op"}}')
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGSEGV)
    out('{{"ev":"op","rhs":1,"failed":0}}')
    out('{{"ev":"stage","name":"measure"}}')
""")


class CrashIsolation(unittest.TestCase):
    def test_crash_counts_in_flight_op_and_restarts(self):
        with tempfile.TemporaryDirectory() as tmp:
            worker = os.path.join(tmp, "worker")
            with open(worker, "w") as f:
                f.write(FAKE_WORKER.format(python=sys.executable))
            os.chmod(worker, os.stat(worker).st_mode | stat.S_IEXEC)
            args = SimpleNamespace(workload="plate_solve", seed=1, seconds=1.0,
                                   trace=0)
            r = run.run_workers(worker, args, tmp, run.time.monotonic())
        self.assertEqual(r.crashed_ops, 1)
        self.assertEqual(len(r.crashes), 1)
        self.assertIn("signal 11", r.crashes[0])
        # Three ops completed across both workers; the reference stage ran
        # once and was skipped by the restarted worker.
        self.assertEqual(len(r.of("op")), 3)
        self.assertEqual(r.done.count("reference"), 1)
        self.assertIn("measure", r.done)


class WorkerSelfTest(unittest.TestCase):
    def test_worker_self_test(self):
        root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        if not os.path.isabs(root):
            root = os.path.join(run.REPO, root)
        binary = os.path.join(root, "perfbench", "perfbench_worker")
        if not os.path.exists(binary):
            self.skipTest("worker not built; run perfbench/run.py once")
        # A one-ulp perturbed solution must fail verification, and the
        # layer self times of a traced plate_solve must cover >= 90% of
        # its wall.  plate_solve runs 4 kernel threads, where the library's
        # pool race can kill the process (a signal, not a failed check);
        # such a run is repeated, a failed check never is.
        for _ in range(3):
            done = subprocess.run([binary, "--self-test"], capture_output=True,
                                  text=True)
            if done.returncode >= 0:
                break
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
