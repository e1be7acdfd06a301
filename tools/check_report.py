#!/usr/bin/env python3
"""Validate mstep JSON artifacts against their schemas.

CI's smoke steps run the tools, then feed every JSON artifact through
this script (the check_bench.py-style schema check for single
documents):

    tools/check_report.py report.json --require converged=true
    tools/check_report.py metrics.json --schema metrics
    tools/check_report.py reply.json --schema request --require cache=hit
    tools/check_report.py BENCH_served.json --schema served

--schema picks the contract: `report` (default) is mstep_solve's --out
document, `request` is mstep_request's --out document, `metrics` is the
mstep_served metrics snapshot (also what --metrics-out flushes on
graceful shutdown), `served` is bench_served's BENCH_served.json, and
`corpus` is run_corpus.py's BENCH_corpus.json — the last two are
ARRAYS of workload rows, each validated against the row schema.

Nested documents use dotted field paths ("cache.hit_rate"); --require
NAME=VALUE asserts an exact (stringified, case-insensitive) value at
such a path.  The document must contain every schema field with the
right JSON type.

Exit codes: 0 ok, 1 schema/requirement failure, 2 usage or I/O error.
"""

import argparse
import json
import sys


def die(message):
    """Usage or I/O error: print and exit 2 (schema failures exit 1)."""
    print(message, file=sys.stderr)
    sys.exit(2)


# Field -> accepted JSON types.  None means nullable (e.g. a failed RHS
# has no iteration count; error_vs_exact is null when no exact solution
# is known).  Dotted names reach into nested objects.
REPORT_SCHEMA = {
    "tool": (str,),
    "source": (str,),
    "problem": (str,),
    "description": (str,),
    "n": (int,),
    "nnz": (int,),
    "bandwidth": (int,),
    "nonzero_diagonals": (int,),
    "dia_friendly": (bool,),
    "used_classes": (bool,),
    "format_selected": (str,),
    "sweep_format": (str,),
    "config": (str,),
    "nrhs": (int,),
    "concurrency": (int,),
    "threads": (int,),
    "setup_seconds": (int, float),
    "wall_seconds": (int, float),
    "solves_per_second": (int, float, type(None)),
    "converged": (bool,),
    "iterations": (list,),
    "final_delta_inf": (list,),
    "rhs_errors": (list,),
    "error_vs_exact": (int, float, type(None)),
    # Spectrum estimate and the condition-number proxy kappa(M^-1 K); the
    # proxy is null for m=0 (no alphas) or a non-positive eigenvalue map
    # (+inf renders as null).  history is RHS 0's per-iteration record.
    "interval.lambda_min": (int, float),
    "interval.lambda_max": (int, float),
    "condition_proxy": (int, float, type(None)),
    "history": (list,),
}

# mstep_request --out: the client-side record of one served solve.
REQUEST_SCHEMA = {
    "tool": (str,),
    "endpoint": (str,),
    "retcode": (int,),
    "retcode_name": (str,),
    "message": (str,),
    "cache": (str,),
    "fingerprint": (str,),
    "config": (str,),
    "format_selected": (str,),
    "nrhs": (int,),
    "converged": (bool,),
    "iterations": (list,),
    "final_delta_inf": (list,),
    "rhs_errors": (list,),
    "setup_seconds": (int, float),
    "solve_seconds": (int, float),
    "e2e_seconds": (int, float),
    "attempts": (int,),
    "request_id": (int,),
}

# mstep_served metrics reply / --metrics-out snapshot (docs/protocol.md).
METRICS_SCHEMA = {
    "tool": (str,),
    "uptime_seconds": (int, float),
    "queue_depth": (int,),
    "max_inflight": (int,),
    "requests.solve": (int,),
    "requests.metrics": (int,),
    "requests.shutdown": (int,),
    "requests.errors": (int,),
    "requests.busy_rejections": (int,),
    "cache.entries": (int,),
    "cache.bytes": (int,),
    "cache.capacity_bytes": (int,),
    "cache.hits": (int,),
    "cache.misses": (int,),
    "cache.evictions": (int,),
    "cache.hit_rate": (int, float),
    "latency_solve_seconds.count": (int,),
    "latency_solve_seconds.mean": (int, float),
    "latency_solve_seconds.max": (int, float),
    "latency_solve_seconds.p50": (int, float),
    "latency_solve_seconds.p99": (int, float),
    "latency_request_seconds.count": (int,),
    "latency_request_seconds.mean": (int, float),
    "latency_request_seconds.max": (int, float),
    "latency_request_seconds.p50": (int, float),
    "latency_request_seconds.p99": (int, float),
    "latency_setup_seconds.count": (int,),
    "latency_setup_seconds.mean": (int, float),
    "latency_setup_seconds.max": (int, float),
    "latency_setup_seconds.p50": (int, float),
    "latency_setup_seconds.p99": (int, float),
}

# One bench_served workload row (BENCH_served.json is an array of these).
SERVED_ROW_SCHEMA = {
    "tool": (str,),
    "workload": (str,),
    "clients": (int,),
    "requests_per_client": (int,),
    "requests_total": (int,),
    "wall_seconds": (int, float),
    "throughput_rps": (int, float),
    "mean_ms": (int, float),
    "p50_ms": (int, float),
    "p99_ms": (int, float),
    "cache_hit_rate": (int, float),
    "busy_retries": (int,),
    "converged": (bool,),
    "bitwise_match_direct": (bool,),
}

# One run_corpus.py row (BENCH_corpus.json is an array of these): one
# manifest matrix x one splitting/m point of the sweep, nrhs=1 flattened.
CORPUS_ROW_SCHEMA = {
    "tool": (str,),
    "matrix": (str,),
    "kind": (str,),
    "splitting": (str,),
    "m": (int,),
    "config": (str,),
    "n": (int,),
    "nnz": (int,),
    "format_selected": (str,),
    "iterations": (int,),
    "converged": (bool,),
    "final_delta_inf": (int, float),
    "condition_proxy": (int, float, type(None)),
    "setup_seconds": (int, float),
    "solve_seconds": (int, float),
}

SCHEMAS = {
    "report": REPORT_SCHEMA,
    "request": REQUEST_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "served": SERVED_ROW_SCHEMA,
    "corpus": CORPUS_ROW_SCHEMA,
}

# Schemas whose document is a JSON ARRAY of rows (--require applies to
# every row).
ARRAY_SCHEMAS = ("served", "corpus")

_MISSING = object()


def lookup(document, dotted):
    """Resolve a dotted path in nested dicts; _MISSING when absent."""
    node = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def check_fields(document, schema, failures, where=""):
    for name, types in schema.items():
        value = lookup(document, name)
        if value is _MISSING:
            failures.append(f"{where}missing field '{name}'")
        # bool is an int subclass in Python; require exact type matches.
        elif not any(type(value) is t for t in types):
            failures.append(
                f"{where}field '{name}' has type {type(value).__name__}, "
                f"wanted one of {[t.__name__ for t in types]}")


def check_report_extras(report, failures):
    """Cross-field checks specific to the mstep_solve report."""
    for name in ("iterations", "final_delta_inf", "rhs_errors"):
        if isinstance(report.get(name), list):
            if len(report[name]) != report.get("nrhs"):
                failures.append(
                    f"'{name}' has {len(report[name])} entries, nrhs = "
                    f"{report.get('nrhs')}")

    # format_selected records the operator layout that actually ran: always
    # a concrete format, and mandatory-resolved when the config asked for
    # the automatic probe (--format=auto must never leak "auto" through).
    fmt = report.get("format_selected")
    if isinstance(fmt, str) and fmt not in ("csr", "dia", "sell"):
        failures.append(
            f"format_selected must be 'csr', 'dia', or 'sell', got '{fmt}'")
    if "format=auto" in str(report.get("config", "")) and fmt not in (
            "csr", "dia", "sell"):
        failures.append(
            "config requested format=auto but the report does not say "
            "which format was selected")

    # sweep_format records the multicolour sweep's segment layout: "dia"
    # exactly when the operator is DIA, "sell" otherwise, and "none" only
    # when no multicolour sweep ran (natural ordering, a generic
    # splitting, m = 0).
    sweep = report.get("sweep_format")
    if isinstance(sweep, str):
        if sweep not in ("sell", "dia", "none"):
            failures.append(
                f"sweep_format must be 'sell', 'dia', or 'none', got "
                f"'{sweep}'")
        elif sweep != "none" and (sweep == "dia") != (fmt == "dia"):
            failures.append(
                f"sweep_format is '{sweep}' but format_selected is "
                f"'{fmt}': the sweep runs on DIA segments exactly when "
                f"the operator is DIA")


    # threads records the kernel threads the solves ran on.  Only a lone
    # lane threads its kernels; lanes of a multi-lane batch run serial
    # kernels, so a report claiming both threads and lanes is wrong.
    threads = report.get("threads")
    lanes = report.get("concurrency")
    if type(threads) is int and threads < 1:
        failures.append(f"threads must be >= 1, got {threads}")
    if (type(threads) is int and type(lanes) is int and threads > 1
            and lanes > 1):
        failures.append(
            f"threads = {threads} with concurrency = {lanes}: batch lanes "
            f"run serial kernels, only a lone lane threads")


def check_metrics_extras(metrics, failures):
    """Sanity relations the metrics snapshot must satisfy."""
    hits = lookup(metrics, "cache.hits")
    misses = lookup(metrics, "cache.misses")
    rate = lookup(metrics, "cache.hit_rate")
    if all(isinstance(v, (int, float)) and v is not _MISSING
           for v in (hits, misses, rate)):
        total = hits + misses
        expect = hits / total if total else 0.0
        if abs(rate - expect) > 1e-9:
            failures.append(
                f"cache.hit_rate = {rate}, but hits/misses say {expect}")
    depth = lookup(metrics, "queue_depth")
    limit = lookup(metrics, "max_inflight")
    if type(depth) is int and type(limit) is int and depth > limit:
        failures.append(f"queue_depth {depth} exceeds max_inflight {limit}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("--schema", choices=sorted(SCHEMAS), default="report",
                    help="which artifact contract to check (default: "
                         "report)")
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="exact field check, dotted paths ok (repeatable)")
    args = ap.parse_args(argv)

    try:
        with open(args.report) as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"check_report: cannot read {args.report}: {e}")

    schema = SCHEMAS[args.schema]
    failures = []
    if args.schema in ARRAY_SCHEMAS:
        # An array of workload rows; --require applies to every row.
        if not isinstance(document, list) or not document:
            die(f"check_report: {args.report} is not a non-empty JSON array")
        for i, row in enumerate(document):
            where = f"row {i}: "
            if not isinstance(row, dict):
                failures.append(f"{where}not a JSON object")
                continue
            check_fields(row, schema, failures, where)
            if args.schema == "corpus":
                fmt = row.get("format_selected")
                if isinstance(fmt, str) and fmt not in ("csr", "dia", "sell"):
                    failures.append(
                        f"{where}format_selected must be 'csr', 'dia', or "
                        f"'sell', got '{fmt}'")
        documents = [(f"row {i}: ", row) for i, row in enumerate(document)
                     if isinstance(row, dict)]
    else:
        if not isinstance(document, dict):
            die(f"check_report: {args.report} is not a JSON object")
        check_fields(document, schema, failures)
        if args.schema == "report":
            check_report_extras(document, failures)
        elif args.schema == "metrics":
            check_metrics_extras(document, failures)
        documents = [("", document)]

    for spec in args.require:
        name, eq, value = spec.partition("=")
        if not eq:
            die(f"check_report: require '{spec}' needs NAME=VALUE")
        for where, doc in documents:
            got = lookup(doc, name)
            got = "missing" if got is _MISSING else str(got).lower()
            if got != value.lower():
                failures.append(f"{where}{name} = {got}, required {value}")

    print(f"check_report: schema '{args.schema}', {len(schema)} fields, "
          f"{len(args.require)} requirement(s), {len(failures)} failure(s) "
          f"({args.report})")
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
