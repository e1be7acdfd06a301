"""check_report.py: the mstep_solve report's sweep_format and threads
contracts.

Runs under plain `python3 -m unittest discover -s tests/tools` (no
pytest needed locally) and under pytest in CI's tools-test job.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_report  # noqa: E402

REPORT = {
    "tool": "mstep_solve",
    "source": "catalog",
    "problem": "femplate:a=12",
    "description": "plate",
    "n": 264,
    "nnz": 3000,
    "bandwidth": 40,
    "nonzero_diagonals": 30,
    "dia_friendly": True,
    "used_classes": True,
    "format_selected": "dia",
    "sweep_format": "dia",
    "config": "splitting=ssor;m=4;format=auto",
    "nrhs": 1,
    "concurrency": 1,
    "threads": 1,
    "setup_seconds": 0.01,
    "wall_seconds": 0.02,
    "solves_per_second": 50.0,
    "converged": True,
    "iterations": [20],
    "final_delta_inf": [1e-7],
    "rhs_errors": [""],
    "error_vs_exact": None,
    "interval": {"lambda_min": 0.1, "lambda_max": 1.0},
    "condition_proxy": 2.0,
    "history": [],
}


class ReportCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def check(self, **fields):
        report = copy.deepcopy(REPORT)
        for name, value in fields.items():
            if value is None:
                del report[name]
            else:
                report[name] = value
        path = os.path.join(self.dir.name, "report.json")
        with open(path, "w") as f:
            json.dump(report, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = check_report.main([path])
        return code, err.getvalue()


class SweepFormatTest(ReportCase):
    def test_dia_sweep_on_dia_operator_passes(self):
        self.assertEqual(self.check()[0], 0)

    def test_sell_sweep_on_csr_and_sell_operators_passes(self):
        for fmt in ("csr", "sell"):
            self.assertEqual(
                self.check(format_selected=fmt, sweep_format="sell")[0], 0)

    def test_no_sweep_passes_with_any_operator(self):
        for fmt in ("csr", "dia", "sell"):
            self.assertEqual(
                self.check(format_selected=fmt, sweep_format="none")[0], 0)

    def test_field_is_required(self):
        code, err = self.check(sweep_format=None)
        self.assertEqual(code, 1)
        self.assertIn("sweep_format", err)

    def test_dia_sweep_requires_dia_operator(self):
        code, err = self.check(format_selected="csr", sweep_format="dia")
        self.assertEqual(code, 1)
        self.assertIn("sweep_format", err)

    def test_dia_operator_rejects_sell_sweep(self):
        code, err = self.check(format_selected="dia", sweep_format="sell")
        self.assertEqual(code, 1)
        self.assertIn("sweep_format", err)

    def test_unknown_layout_fails(self):
        code, err = self.check(sweep_format="csr")
        self.assertEqual(code, 1)
        self.assertIn("sweep_format", err)


class ThreadsTest(ReportCase):
    def test_threaded_lone_lane_passes(self):
        self.assertEqual(self.check(threads=4, concurrency=1)[0], 0)

    def test_serial_batch_lanes_pass(self):
        self.assertEqual(
            self.check(threads=1, concurrency=4, nrhs=4, iterations=[20] * 4,
                       final_delta_inf=[1e-7] * 4, rhs_errors=[""] * 4)[0],
            0)

    def test_field_is_required(self):
        code, err = self.check(threads=None)
        self.assertEqual(code, 1)
        self.assertIn("threads", err)

    def test_threads_with_several_lanes_fails(self):
        code, err = self.check(threads=2, concurrency=2)
        self.assertEqual(code, 1)
        self.assertIn("threads", err)

    def test_zero_threads_fails(self):
        code, err = self.check(threads=0)
        self.assertEqual(code, 1)
        self.assertIn("threads", err)


if __name__ == "__main__":
    unittest.main()
