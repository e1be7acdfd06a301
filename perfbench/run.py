#!/usr/bin/env python3
"""The repository benchmark: builds the worker, runs one workload, prints
one JSON result line.

    python3 perfbench/run.py --workload plate_solve --seed 1 --seconds 20 \
        --trace 0

Run from the repository root.  The worker (src/worker.cpp) is built from
source into $CARGO_TARGET_DIR (default .bench_build)/perfbench and runs
the workload in-process against the library's public API, streaming one
JSON record per event.  This script turns the records into metrics:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones
(BENCHMARK.json lists both; NOTES.md says what each means and why).

Crash isolation: a worker that dies (the library's pool race can
segfault a threaded solve) has the operations it had begun counted as
failed, and a new worker continues with the time that is left, skipping
the stages its predecessors finished.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
everything else goes to stderr.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("plate_solve", "plate_rhs_batch", "served_mixed")
MAX_RESTARTS = 6
# Every run must end within 180 s; no worker is started or kept past this.
HARD_LIMIT_S = 165.0


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


# ---- statistics ------------------------------------------------------------


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return None
    h = n // 2
    return values[h] if n % 2 else 0.5 * (values[h - 1] + values[h])


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    values = sorted(values)
    if not values:
        return None
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples strictly above the q-quantile of n samples."""
    return n - 1 - math.floor(q * (n - 1)) if n else 0


def highest_resolved_percentile(n, candidates=(0.99, 0.95, 0.9, 0.75, 0.5)):
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if samples_beyond(n, q) >= 10:
            return q
    return None


# ---- build -----------------------------------------------------------------


def build_worker():
    for needed in ("CMakeLists.txt", os.path.join("src", "solver", "solver.hpp")):
        if not os.path.exists(os.path.join(REPO, needed)):
            sys.exit(f"run.py: {needed} is missing: the benchmark needs the "
                     f"repository sources next to {os.path.basename(HERE)}/")
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(root):
        root = os.path.join(REPO, root)
    build = os.path.join(root, "perfbench")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1")
    log_path = os.path.join(build, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build, "--target", "perfbench_worker",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit(f"run.py: build failed ({' '.join(cmd)})")
    return os.path.join(build, "perfbench_worker"), build


# ---- running workers -------------------------------------------------------


class Run:
    """Records of every worker of one benchmark run, plus crash accounting."""

    def __init__(self):
        self.records = []
        self.done = []
        self.crashed_ops = 0
        self.crashes = []
        self.peak_rss_mib = 0.0

    def of(self, ev):
        return [r for r in self.records if r.get("ev") == ev]


def run_workers(binary, args, state_dir, started):
    run = Run()
    consumed = 0.0
    for attempt in range(MAX_RESTARTS + 1):
        left = HARD_LIMIT_S - (time.monotonic() - started)
        if left < 10:
            break
        remaining = max(args.seconds - consumed, 1.0)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{remaining:.3f}", "--trace", str(args.trace),
               "--state-dir", state_dir, "--done", ",".join(run.done) or ","]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=REPO)
        killer = threading.Timer(left, proc.kill)
        killer.start()
        pending = {}
        measure_start = None
        try:
            for line in proc.stdout:
                try:
                    rec = json.loads(line)
                except ValueError:
                    sys.stderr.write(line)
                    continue
                ev = rec.get("ev")
                run.records.append(rec)
                if ev == "begin":
                    pending[rec["what"]] = pending.get(rec["what"], 0) + 1
                elif ev in ("op", "traced"):
                    key = "request" if rec.get("kind") else ev
                    pending[key] = pending.get(key, 0) - 1
                elif ev == "stage":
                    run.done.append(rec["name"])
                    pending.pop("reference", None)
                elif ev == "measure_start":
                    measure_start = time.monotonic()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = status  # reaped here, not by Popen
            killer.cancel()
        run.peak_rss_mib = max(run.peak_rss_mib, usage.ru_maxrss / 1024.0)
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            return run
        how = (f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
               else f"exit {os.WEXITSTATUS(status)}")
        if run.records and run.records[-1].get("ev") == "timeout":
            how += " (operation over its time limit)"
        lost = sum(v for v in pending.values() if v > 0)
        run.crashes.append(f"{how} with {lost} operation(s) in flight")
        run.crashed_ops += max(lost, 1)
        if measure_start is not None:
            consumed += time.monotonic() - measure_start
    run.crashes.append("gave up: restart or time limit reached")
    return run


# ---- metrics ---------------------------------------------------------------


def end_to_end(workload, run):
    ops = run.of("op")
    good = [o for o in ops if o["failed"] == 0]
    base = good or ops
    m = {}
    if workload == "served_mixed":
        phase_s = sum(p["phase_s"] for p in run.of("phase"))
        lat = [o["latency_s"] * 1e3 for o in base]
        misses = [o["latency_s"] for o in base if o["kind"] == "miss"]
        m["setup_s"] = median([s["setup_s"] for s in run.of("setup")])
        m["time_to_solution_s"] = median(misses)
        m["solve_s"] = median([o["solve_s"] for o in base])
        m["requests_per_s"] = len(good) / phase_s if phase_s else 0.0
        m["solves_per_s"] = m["requests_per_s"]
    else:
        lat = [o["call_s"] * 1e3 for o in base]
        m["setup_s"] = median([o["prepare_s"] for o in ops])
        m["time_to_solution_s"] = median(
            [o["prepare_s"] + o["call_s"] for o in base])
        m["solve_s"] = median([o["call_s"] for o in base])
        m["solves_per_s"] = (sum(o["rhs"] for o in base) /
                             sum(o["call_s"] for o in base))
        m["requests_per_s"] = 1.0 / m["time_to_solution_s"]
    m["latency_p50_ms"] = percentile(lat, 0.5)
    m["latency_p90_ms"] = percentile(lat, 0.9)
    solved = sum(o["rhs"] - o["failed"] for o in base)
    m["iterations"] = sum(o["iterations"] for o in base) / max(solved, 1)
    # On served_mixed the never-seen matrices are fresh random draws each
    # run, so their residuals are checked against the bound but the metric
    # is taken over the resident pipelines' hits, whose systems it tracks.
    scored = [o for o in base if o.get("kind", "hit") == "hit"] or base
    m["max_rel_residual"] = max(o["max_rel_residual"] for o in scored)
    m["peak_rss_mb"] = run.peak_rss_mib
    beyond = samples_beyond(len(lat), 0.9)
    note = ("" if beyond >= 10 else
            f"; highest percentile with >= 10 samples beyond it: "
            f"{highest_resolved_percentile(len(lat))}")
    log(f"{len(lat)} latency samples, {beyond} beyond p90{note}")
    return m


def serve_layer(run):
    ops = [o for o in run.of("op") if o["failed"] == 0]
    hits = [o for o in ops if o["kind"] == "hit"]
    misses = [o for o in ops if o["kind"] == "miss"]
    return {
        "serve.hit_rate": sum(o["cache_hit"] for o in ops) / max(len(ops), 1),
        "serve.hit_latency_p50_ms": median([o["latency_s"] for o in hits]) * 1e3,
        "serve.miss_latency_p50_ms":
            median([o["latency_s"] for o in misses]) * 1e3,
        "serve.server_solve_ms": median([o["solve_s"] for o in ops]) * 1e3,
        "serve.server_setup_ms": median([o["setup_s"] for o in misses]) * 1e3,
        "serve.overhead_ms": median(
            [o["latency_s"] - o["setup_s"] - o["solve_s"] for o in ops]) * 1e3,
        "serve.busy_retries": sum(o["retries"] for o in run.of("op")),
        "serve.request_mb": median([o["request_bytes"] for o in misses])
        / (1 << 20),
    }


def per_layer(workload, run):
    m = {r["name"]: r["value"] for r in run.of("metric")}
    traced = run.of("traced")
    good = [t for t in traced if t["failed"] == 0 and
            t["untraced_failed"] == 0 and t["same_as_untraced"]]
    base = good or traced
    if not base:
        return m

    def med(key):
        return median([t[key] for t in base])

    threads = m.get("bench.kernel_threads", 1)
    triad = m.get("la.triad_gbs_nt" if threads > 1 else "la.triad_gbs_1t")
    m["core.sweep_s"] = med("sweep_s")
    m["core.sweep_calls"] = med("sweep_calls")
    m["core.sweep_share"] = median([t["sweep_s"] / t["solve_wall_s"]
                                    for t in base])
    m["core.sweep_gbs"] = median([t["sweep_bytes"] / t["sweep_s"] / 1e9
                                  for t in base])
    m["la.spmv_s"] = med("spmv_s")
    m["la.spmv_calls"] = med("spmv_calls")
    m["la.spmv_gbs"] = median([t["spmv_bytes"] / t["spmv_s"] / 1e9
                               for t in base])
    if triad:
        m["core.sweep_bw_frac"] = m["core.sweep_gbs"] / triad
        m["la.spmv_bw_frac"] = m["la.spmv_gbs"] / triad
    m["core.pcg_self_s"] = med("pcg_self_s")
    m["bench.layer_accounted_frac"] = median(
        [(t["sweep_s"] + t["spmv_s"] + t["pcg_self_s"]) / t["solve_wall_s"]
         for t in base])
    m["bench.trace_overhead_frac"] = med("traced_s") / med("untraced_s") - 1.0
    m["bench.traced_match_frac"] = (
        sum(t["same_as_untraced"] for t in traced) / len(traced))
    m["bench.working_set_mib"] = med("working_set_mib")
    m["solver.batch_lanes"] = med("lanes")
    if "core.precond_build_s" not in m:
        m["core.precond_build_s"] = med("precond_build_s")
    if workload == "served_mixed":
        m.update(serve_layer(run))
        m["core.serial_solve_s"] = med("serial_solve_s")
        m["par.speedup_vs_serial"] = (m["core.serial_solve_s"] /
                                      (m["serve.server_solve_ms"] / 1e3))
    else:
        rhs = base[0]["rhs"]
        m["par.speedup_vs_serial"] = (m.get("core.serial_solve_s", 0.0) * rhs /
                                      med("untraced_s"))
    return m


def merge_traces(paths, dest):
    """One Chrome trace from every worker's file: each worker's tracks get
    their own thread ids, and times start at the earliest span."""
    events = []
    for k, path in enumerate(paths):
        with open(path) as f:
            for e in json.load(f)["traceEvents"]:
                e["tid"] += 100 * k
                if e["ph"] == "M":
                    e["args"]["name"] = f"worker{k}-{e['args']['name']}"
                events.append(e)
    spans = [e for e in events if e["ph"] == "X"]
    epoch = min((e["ts"] for e in spans), default=0.0)
    for e in spans:
        e["ts"] = round(e["ts"] - epoch, 3)
    with open(dest, "w") as f:
        json.dump({"traceEvents": events, "counters": {},
                   "dropped_events": 0}, f)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    e2e_spec, layer_spec = load_spec()
    binary, build = build_worker()
    # Relative to the repository root (the workers' working directory), so
    # the server's Unix socket path stays short wherever the checkout is.
    state_dir = os.path.relpath(os.path.join(build, f"state-{os.getpid()}"),
                                REPO)
    os.makedirs(os.path.join(REPO, state_dir), exist_ok=True)
    try:
        run = run_workers(binary, args, state_dir, time.monotonic())
        traces = list(dict.fromkeys(r["path"] for r in run.of("trace_file")))
        if traces:
            keep = os.path.join(build, "traces")
            os.makedirs(keep, exist_ok=True)
            dest = os.path.join(
                keep, f"{args.workload}-seed{args.seed}.trace.json")
            merge_traces([os.path.join(REPO, t) for t in traces], dest)
            log(f"trace written to {dest}")
    finally:
        shutil.rmtree(os.path.join(REPO, state_dir), ignore_errors=True)

    ops = run.of("op")
    attempted = sum(o["rhs"] for o in ops) + run.crashed_ops
    failed = sum(o["failed"] for o in ops) + run.crashed_ops
    if args.trace:
        for t in run.of("traced"):
            attempted += 2 * t["rhs"]
            failed += t["failed"] + t["untraced_failed"]
        values = per_layer(args.workload, run)
        spec = layer_spec
    else:
        values = end_to_end(args.workload, run) if ops else {}
        spec = e2e_spec
    for crash in run.crashes:
        log(f"worker crash: {crash}")
    for why in sorted({o["why"] for o in ops if o.get("why")}):
        log(f"failed check: {why}")

    metrics = {}
    missing = []
    for entry in spec:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        log(f"not measured: {', '.join(missing)}")
    log(f"{args.workload} seed {args.seed}: {attempted} attempted, "
        f"{failed} failed ({failed / max(attempted, 1):.3f}), "
        f"wall {time.monotonic() - started:.1f} s")
    for name, v in metrics.items():
        log(f"  {name} = {v['value']:.6g} {v['unit']}")
    correct = attempted > 0 and failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
