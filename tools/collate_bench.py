#!/usr/bin/env python3
"""Collate BENCH_*.json files into one perf-over-time table.

Every bench harness emits a JSON array of flat workload rows
(BENCH_batch.json, BENCH_scaling.json, BENCH_served.json, ...).  This
script merges any number of them — typically the committed baselines
plus the artifacts of one or more CI runs — into one table per bench,
so a perf change reads as adjacent rows instead of a diff across files:

    tools/collate_bench.py bench/baselines/*.json run1/BENCH_*.json
    tools/collate_bench.py --markdown --out summary.md \\
        --label baseline bench/baselines/BENCH_batch.json \\
        --label candidate BENCH_batch.json

Rows are grouped by bench (the file's BENCH_<name> stem), labelled by
--label in file order (default: the file's parent directory, or the
stem), and printed with the union of scalar columns in first-seen
order.  --markdown writes GitHub-flavoured tables (for
$GITHUB_STEP_SUMMARY); the default is aligned ASCII.  Use
check_bench.py, not this, to FAIL on a regression — collation is for
eyes, the gate is for exit codes.

--trajectory is the perf observatory: the files are N historical runs
of the same benches in CHRONOLOGICAL order (oldest first — CI feeds it
the rolling bench-history cache plus the current run), and instead of
stacking rows it pivots each numeric metric into one trend table —
rows identified by the bench's key fields, one value column per run,
then delta and delta-% of the newest run against the previous one — so
a perf change reads as a curve, not a single red X:

    tools/collate_bench.py --trajectory --markdown \\
        bench-history/*/BENCH_corpus.json BENCH_corpus.json

Key fields default per bench (workload; scaling: workload,threads;
kernels: kernel,format,n; corpus: matrix,splitting,m) and can be
overridden with --trajectory-key BENCH=F1,F2.  Runs missing a row or a
metric show "-"; boolean and string columns never trend (the gate
checks them exactly).

Exit codes: 0 ok, 2 usage or I/O error (an empty input set is an
error: a collation of nothing hides a bench that stopped emitting).
"""

import argparse
import json
import os
import sys


def die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def bench_name(path):
    """BENCH_batch.json -> batch; anything else keeps its stem."""
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def default_label(path):
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    return parent or os.path.splitext(os.path.basename(path))[0]


def load_rows(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"collate_bench: cannot read {path}: {e}")
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(
            isinstance(r, dict) for r in data):
        die(f"collate_bench: {path} is not a JSON array of objects")
    return data


def fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def render_ascii(columns, rows, title):
    widths = [max(len(c), max((len(r[i]) for r in rows), default=0))
              for i, c in enumerate(columns)]
    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = [f"== {title} ==", rule,
             "| " + " | ".join(c.ljust(w) for c, w in zip(columns, widths))
             + " |", rule]
    lines += ["| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |"
              for r in rows]
    lines.append(rule)
    return "\n".join(lines) + "\n"


def render_markdown(columns, rows, title):
    lines = [f"### {title}", "",
             "| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


# Default row-identity fields per bench for --trajectory; anything not
# listed keys on "workload".
TRAJECTORY_KEYS = {
    "scaling": "workload,threads",
    "kernels": "kernel,format,n",
    "corpus": "matrix,splitting,m",
}

# Default trended metrics per bench for --trajectory — the gated and
# load-bearing columns, so the step summary stays readable; a bench not
# listed here trends every numeric column.  Override per bench with
# --trajectory-metrics.
TRAJECTORY_METRICS = {
    "batch": "speedup_vs_seq_threaded,iterations_total,wall_seconds",
    "scaling": "speedup_vs_serial,iterations,wall_seconds",
    "served": "cache_hit_rate,throughput_rps,p99_ms,miss_p50_ms",
    "kernels": "simd_speedup,gb_per_s",
    "corpus": "iterations,solve_seconds,setup_seconds",
}


def is_metric(value):
    """Trendable value: a real number, not a bool (bool is int in Python)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def trajectory_tables(runs, key_fields, metrics, render):
    """Pivot one bench's runs into per-metric trend tables.

    `runs` is [(label, rows)] in chronological order; `metrics` is the
    allowed metric list (None = every numeric column).  Returns the
    list of rendered tables (one per metric, in first-seen order).
    """
    bykey = []          # (label, {key tuple -> row}) per run
    key_order = []      # first-seen row identities
    metric_order = []   # first-seen numeric columns
    for label, rows in runs:
        indexed = {}
        for row in rows:
            key = tuple(row.get(f) for f in key_fields)
            if key not in indexed:
                indexed[key] = row
            if key not in key_order:
                key_order.append(key)
            for name, value in row.items():
                if name not in key_fields and name not in metric_order \
                        and is_metric(value) \
                        and (metrics is None or name in metrics):
                    metric_order.append(name)
        bykey.append((label, indexed))

    tables = []
    for metric in metric_order:
        columns = list(key_fields) + [label for label, _ in bykey] \
            + ["delta", "delta%"]
        table = []
        for key in key_order:
            cells = [fmt(v) for v in key]
            series = []
            for _, indexed in bykey:
                value = indexed.get(key, {}).get(metric)
                series.append(value if is_metric(value) else None)
                cells.append(fmt(series[-1]))
            # Delta of the newest run against the run before it; "-"
            # until two trailing runs both carry the metric.
            present = [v for v in series if v is not None]
            if len(present) >= 2 and series[-1] is not None:
                last, prev = present[-1], present[-2]
                cells.append(f"{last - prev:+.4g}")
                cells.append(f"{(last - prev) / prev:+.1%}"
                             if prev != 0 else "-")
            else:
                cells += ["-", "-"]
            table.append(cells)
        tables.append(render(columns, table,
                             f"trajectory: {metric} ({len(bykey)} runs)"))
    return tables


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", metavar="BENCH.json")
    ap.add_argument("--label", action="append", default=[],
                    help="label for the Nth file (repeatable; default: "
                         "the file's parent directory)")
    ap.add_argument("--markdown", action="store_true",
                    help="GitHub-flavoured tables instead of ASCII")
    ap.add_argument("--trajectory", action="store_true",
                    help="files are historical runs (oldest first): "
                         "render per-metric trend tables with "
                         "delta-vs-previous columns")
    ap.add_argument("--trajectory-key", action="append", default=[],
                    metavar="BENCH=F1,F2",
                    help="row-identity fields for a bench in --trajectory "
                         "mode (repeatable; defaults: workload / "
                         "scaling=workload,threads / kernels=kernel,"
                         "format,n / corpus=matrix,splitting,m)")
    ap.add_argument("--trajectory-metrics", action="append", default=[],
                    metavar="BENCH=M1,M2",
                    help="metrics to trend for a bench in --trajectory "
                         "mode (repeatable; default: the bench's gated "
                         "columns, or every numeric column for an "
                         "unknown bench)")
    ap.add_argument("--out", help="also write the tables to this file")
    args = ap.parse_args(argv)
    if len(args.label) > len(args.files):
        die("collate_bench: more --label values than files")
    trajectory_keys = dict(TRAJECTORY_KEYS)
    for spec in args.trajectory_key:
        bench, eq, fields = spec.partition("=")
        if not eq or not bench or not fields:
            die(f"collate_bench: --trajectory-key '{spec}' needs "
                f"BENCH=F1,F2")
        trajectory_keys[bench] = fields
    trajectory_metrics = dict(TRAJECTORY_METRICS)
    for spec in args.trajectory_metrics:
        bench, eq, fields = spec.partition("=")
        if not eq or not bench or not fields:
            die(f"collate_bench: --trajectory-metrics '{spec}' needs "
                f"BENCH=M1,M2")
        trajectory_metrics[bench] = fields

    render = render_markdown if args.markdown else render_ascii
    out = []
    if args.trajectory:
        # bench name -> [(run label, rows)] in file (= chronological) order
        benches = {}
        for i, path in enumerate(args.files):
            label = args.label[i] if i < len(args.label) \
                else default_label(path)
            benches.setdefault(bench_name(path), []).append(
                (label, load_rows(path)))
        if not benches:
            die("collate_bench: nothing to collate")
        for name in sorted(benches):
            fields = [f for f in
                      trajectory_keys.get(name, "workload").split(",") if f]
            allowed = trajectory_metrics.get(name)
            if allowed is not None:
                allowed = [m for m in allowed.split(",") if m]
            out.append((f"## trajectory: {name}\n\n" if args.markdown
                        else f"#### trajectory: {name}\n\n"))
            out.extend(trajectory_tables(benches[name], fields, allowed,
                                         render))
    else:
        # bench name -> (column order, [row dicts with 'source' first])
        benches = {}
        for i, path in enumerate(args.files):
            label = args.label[i] if i < len(args.label) \
                else default_label(path)
            name = bench_name(path)
            columns, rows = benches.setdefault(name, (["source"], []))
            for row in load_rows(path):
                for key, value in row.items():
                    if key == "tool" or isinstance(value, (list, dict)):
                        continue  # scalar columns only; 'tool' repeats stem
                    if key not in columns:
                        columns.append(key)
                rows.append({"source": label, **row})
        if not benches:
            die("collate_bench: nothing to collate")
        for name in sorted(benches):
            columns, rows = benches[name]
            table = [[fmt(r.get(c, None)) for c in columns] for r in rows]
            out.append(render(columns, table, f"bench: {name}"))
    text = "\n".join(out)
    print(text, end="")
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            die(f"collate_bench: cannot write {args.out}: {e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
