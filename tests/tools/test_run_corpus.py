"""run_corpus.py: aggregation over a stub driver, no C++ build needed.

The stub stands in for mstep_solve: it parses the same flags and
writes a schema-complete report whose iteration count is a
deterministic function of (splitting, m), so the tests can assert the
flattened BENCH_corpus.json rows exactly.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
import textwrap
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools"))

import run_corpus  # noqa: E402

STUB_DRIVER = textwrap.dedent("""\
    import json, sys
    args = dict(a[2:].split("=", 1) for a in sys.argv[1:] if "=" in a)
    splitting, m = args["splitting"], int(args["m"])
    report = {
        "tool": "mstep_solve",
        "source": "file",
        "problem": args["matrix"],
        "description": "stub",
        "n": 10,
        "nnz": 28,
        "bandwidth": 1,
        "nonzero_diagonals": 3,
        "dia_friendly": True,
        "used_classes": False,
        "format_selected": "dia",
        "sweep_format": "dia",
        "config": "splitting=%s;m=%d;format=auto" % (splitting, m),
        "nrhs": 1,
        "concurrency": 1,
        "threads": 1,
        "setup_seconds": 0.25,
        "wall_seconds": 0.5,
        "solves_per_second": 2.0,
        "converged": True,
        "iterations": [10 * len(splitting) - m],
        "final_delta_inf": [1e-7],
        "rhs_errors": [""],
        "error_vs_exact": None,
        "interval": {"lambda_min": 0.1, "lambda_max": 1.9},
        "condition_proxy": 1.5,
        "history": [{"value": 1e-7, "alpha": 0.9, "seconds": 0.001}],
    }
    with open(args["out"], "w") as f:
        json.dump(report, f)
    """)

ENTRY = {
    "name": "mat1",
    "kind": "generated",
    "generator": "poisson2d:n=8",
    "sha256": None,
    "n": 10,
    "nnz": 28,
    "spd": True,
    "expected_format": "dia",
    "pinned": False,
}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_corpus.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class RunCorpusTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.cache = os.path.join(self.dir.name, "cache")
        os.makedirs(self.cache)
        self.driver = os.path.join(self.dir.name, "stub_driver.py")
        with open(self.driver, "w") as f:
            f.write(STUB_DRIVER)
        self.out = os.path.join(self.dir.name, "BENCH_corpus.json")

    def add_matrix(self, name, pin_to_payload=False):
        payload = f"stub matrix {name}\n".encode()
        with open(os.path.join(self.cache, name + ".mtx"), "wb") as f:
            f.write(payload)
        entry = copy.deepcopy(ENTRY)
        entry["name"] = name
        if pin_to_payload:
            entry["pinned"] = True
            entry["sha256"] = hashlib.sha256(payload).hexdigest()
        return entry

    def write_manifest(self, entries):
        path = os.path.join(self.dir.name, "manifest.json")
        with open(path, "w") as f:
            json.dump({"schema": "mstep-corpus-manifest-v1",
                       "matrices": entries}, f)
        return path

    def invoke(self, manifest, *extra):
        return run_main(["--manifest", manifest, "--cache", self.cache,
                         "--driver", self.driver, "--out", self.out,
                         *extra])

    def rows(self):
        with open(self.out) as f:
            return json.load(f)

    def test_aggregates_sorted_flat_rows(self):
        manifest = self.write_manifest([self.add_matrix("beta"),
                                        self.add_matrix("alpha")])
        code, _, _ = self.invoke(manifest)
        self.assertEqual(code, 0)
        rows = self.rows()
        # 2 matrices x default 4-point sweep, sorted by matrix then
        # splitting then m.
        self.assertEqual(len(rows), 8)
        self.assertEqual([r["matrix"] for r in rows],
                         ["alpha"] * 4 + ["beta"] * 4)
        self.assertEqual([(r["splitting"], r["m"]) for r in rows[:4]],
                         [("jacobi", 2), ("ssor", 1), ("ssor", 2),
                          ("ssor", 4)])
        # iterations flattened from the report's per-RHS list via the
        # stub's 10*len(splitting) - m formula.
        self.assertEqual(rows[0]["iterations"], 58)   # jacobi, m=2
        self.assertEqual(rows[1]["iterations"], 39)   # ssor, m=1
        self.assertEqual(rows[0]["solve_seconds"], 0.5)
        self.assertEqual(rows[0]["tool"], "bench_corpus")

    def test_custom_sweep(self):
        manifest = self.write_manifest([self.add_matrix("alpha")])
        code, _, _ = self.invoke(manifest, "--sweep", "ssor:3")
        self.assertEqual(code, 0)
        self.assertEqual([(r["splitting"], r["m"]) for r in self.rows()],
                         [("ssor", 3)])

    def test_missing_matrix_skips_with_notice(self):
        present = self.add_matrix("present")
        absent = copy.deepcopy(ENTRY)
        absent["name"] = "never-fetched"
        manifest = self.write_manifest([present, absent])
        code, out, _ = self.invoke(manifest)
        self.assertEqual(code, 0)
        self.assertIn("skipped", out)
        self.assertIn("never-fetched", out)
        self.assertEqual({r["matrix"] for r in self.rows()}, {"present"})

    def test_require_all_fails_on_missing_matrix(self):
        absent = copy.deepcopy(ENTRY)
        absent["name"] = "never-fetched"
        manifest = self.write_manifest([self.add_matrix("present"), absent])
        code, _, err = self.invoke(manifest, "--require-all")
        self.assertEqual(code, 1)
        self.assertIn("--require-all", err)

    def test_pinned_format_mismatch_fails(self):
        entry = self.add_matrix("alpha", pin_to_payload=True)
        entry["expected_format"] = "sell"  # stub always reports dia
        manifest = self.write_manifest([entry])
        code, _, err = self.invoke(manifest)
        self.assertEqual(code, 1)
        self.assertIn("format_selected", err)
        self.assertEqual(self.rows(), [])  # bad rows never land

    def test_unpinned_metadata_mismatch_only_warns(self):
        entry = self.add_matrix("alpha")
        entry["n"] = 99999  # wrong, but advisory while unpinned
        manifest = self.write_manifest([entry])
        code, out, _ = self.invoke(manifest)
        self.assertEqual(code, 0)
        self.assertIn("advisory", out)
        self.assertEqual(len(self.rows()), 4)

    def test_stale_pinned_cache_fails(self):
        entry = self.add_matrix("alpha", pin_to_payload=True)
        entry["sha256"] = "0" * 64
        manifest = self.write_manifest([entry])
        code, _, err = self.invoke(manifest)
        self.assertEqual(code, 1)
        self.assertIn("stale or corrupt", err)

    def write_counting_driver(self, body):
        """A stub whose output varies per invocation via a counter file."""
        driver = os.path.join(self.dir.name, "counting_driver.py")
        counter = os.path.join(self.dir.name, "calls")
        prologue = textwrap.dedent("""\
            import json, os, sys
            args = dict(a[2:].split("=", 1) for a in sys.argv[1:] if "=" in a)
            counter = %r
            calls = int(open(counter).read()) if os.path.exists(counter) else 0
            open(counter, "w").write(str(calls + 1))
            """ % counter)
        with open(driver, "w") as f:
            f.write(STUB_DRIVER.replace("import json, sys\n", prologue)
                    .replace("args = dict(a[2:].split(\"=\", 1) "
                             "for a in sys.argv[1:] if \"=\" in a)\n", "", 1)
                    .replace(body[0], body[1]))
        return driver

    def test_timings_are_best_of_repeats(self):
        # wall_seconds climbs 0.5 / 1.5 / 2.5 across the repeats; the
        # row must keep the minimum.
        driver = self.write_counting_driver(
            ('"wall_seconds": 0.5,', '"wall_seconds": 0.5 + calls,'))
        manifest = self.write_manifest([self.add_matrix("alpha")])
        code, _, _ = run_main(["--manifest", manifest, "--cache", self.cache,
                               "--driver", driver, "--out", self.out,
                               "--sweep", "ssor:2", "--repeats", "3"])
        self.assertEqual(code, 0)
        self.assertEqual(self.rows()[0]["solve_seconds"], 0.5)

    def test_nondeterministic_iterations_fail(self):
        driver = self.write_counting_driver(
            ('"iterations": [10 * len(splitting) - m],',
             '"iterations": [100 + calls],'))
        manifest = self.write_manifest([self.add_matrix("alpha")])
        code, _, err = run_main(["--manifest", manifest, "--cache",
                                 self.cache, "--driver", driver,
                                 "--out", self.out, "--sweep", "ssor:2",
                                 "--repeats", "2"])
        self.assertEqual(code, 1)
        self.assertIn("differs across repeats", err)
        self.assertEqual(self.rows(), [])

    def test_empty_run_is_a_failure(self):
        absent = copy.deepcopy(ENTRY)
        absent["name"] = "never-fetched"
        manifest = self.write_manifest([absent])
        code, _, _ = self.invoke(manifest)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
