#!/usr/bin/env python3
"""Keep the docs honest: compile their C++ snippets, audit mstep_solve flags.

Two modes, both run by CI's docs job:

    tools/check_docs.py --extract docs_snippets.cpp
        Extract every ```cpp fenced block from README.md and docs/*.md
        into one generated translation unit (each snippet in its own
        function, #includes hoisted, a small placeholder scope providing
        the free variables snippets conventionally use: K, f, bs,
        config).  The job then compiles it with `g++ -fsyntax-only
        -Isrc`, so a doc snippet that drifts from the real API fails CI.

    tools/check_docs.py --audit-help help.txt
        Audit `mstep_solve --help` (captured to help.txt) against the
        docs: every --flag used on an mstep_solve command line in any
        fenced sh block, and every flag of the documented CLI surface,
        must appear in the help text — so --help can never lag README.

Exit codes: 0 ok, 1 check failure, 2 usage or I/O error.
"""

import argparse
import glob
import os
import re
import sys

# The CLI surface the README/docs document; --help must name every one.
DOCUMENTED_FLAGS = [
    "problem", "matrix", "rhs", "nrhs", "out", "list", "help",
    "splitting", "m", "params", "ordering", "format", "stop", "tol",
    "maxit", "threads", "batch", "export-matrix", "export-only",
    "trace",
]

# Free variables doc snippets use without declaring (the README
# quickstart convention: K is the matrix, f the right-hand side, bs a
# batch of right-hand sides, config a solver config).
PLACEHOLDERS = """\
  [[maybe_unused]] mstep::la::CsrMatrix K;
  [[maybe_unused]] mstep::Vec f;
  [[maybe_unused]] std::vector<mstep::Vec> bs;
  [[maybe_unused]] mstep::solver::SolverConfig config;
"""

BASE_INCLUDES = [
    "<vector>",
    '"io/matrix_market.hpp"',
    '"problems/driver.hpp"',
    '"solver/solver.hpp"',
]


def die(message):
    """Usage or I/O error: print and exit 2 (check failures exit 1)."""
    print(message, file=sys.stderr)
    sys.exit(2)


def doc_files(root):
    files = [os.path.join(root, "README.md")]
    files += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    return [f for f in files if os.path.isfile(f)]


def fenced_blocks(path, language):
    """Yield (start_line, [lines]) for each ```<language> block."""
    blocks, lines, start = [], None, 0
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if lines is None:
                if line.strip() == f"```{language}":
                    lines, start = [], number
            elif line.strip() == "```":
                blocks.append((start, lines))
                lines = None
            else:
                lines.append(line)
    return blocks


def extract(root, out_path):
    includes = list(BASE_INCLUDES)
    bodies = []
    for path in doc_files(root):
        rel = os.path.relpath(path, root)
        for start, lines in fenced_blocks(path, "cpp"):
            body = []
            for line in lines:
                stripped = line.strip()
                if stripped.startswith("#include"):
                    header = stripped[len("#include"):].strip()
                    if header not in includes:
                        includes.append(header)
                    continue
                # The docs' "fill in your data here" ellipsis becomes an
                # empty initializer so the snippet stays compilable.
                body.append(line.replace("= ...;", "= {};"))
            bodies.append((rel, start, body))

    with open(out_path, "w") as out:
        out.write("// GENERATED by tools/check_docs.py --extract: every\n"
                  "// ```cpp snippet from README.md and docs/*.md, "
                  "compiled\n// with -fsyntax-only by CI's docs job.\n")
        for header in includes:
            out.write(f"#include {header}\n")
        for index, (rel, start, body) in enumerate(bodies):
            out.write(f"\n// {rel}:{start}\n")
            out.write(f"[[maybe_unused]] static void doc_snippet_{index}()"
                      " {\n")
            out.write(PLACEHOLDERS)
            out.write("  {\n")
            for line in body:
                out.write(f"  {line}\n" if line else "\n")
            out.write("  }\n}\n")
    print(f"check_docs: extracted {len(bodies)} snippet(s) from "
          f"{len(doc_files(root))} file(s) into {out_path}")
    if not bodies:
        print("  FAIL: no ```cpp snippets found — wrong --root?",
              file=sys.stderr)
        return 1
    return 0


def shell_mstep_solve_flags(root):
    """Flags used on mstep_solve command lines in fenced sh blocks."""
    used = {}
    for path in doc_files(root):
        rel = os.path.relpath(path, root)
        for start, lines in fenced_blocks(path, "sh"):
            joined, carry = [], ""
            for line in lines:
                if line.rstrip().endswith("\\"):
                    carry += line.rstrip()[:-1] + " "
                else:
                    joined.append(carry + line)
                    carry = ""
            if carry:
                joined.append(carry)
            for line in joined:
                if "mstep_solve" not in line:
                    continue
                for flag in re.findall(r"--([A-Za-z][\w-]*)", line):
                    used.setdefault(flag, f"{rel}:{start}")
    return used


def audit_help(root, help_path):
    try:
        with open(help_path) as f:
            help_text = f.read()
    except OSError as e:
        die(f"check_docs: cannot read {help_path}: {e}")

    in_help = set(re.findall(r"--([A-Za-z][\w-]*)", help_text))
    failures = []
    used = shell_mstep_solve_flags(root)
    for flag, where in sorted(used.items()):
        if flag not in in_help:
            failures.append(
                f"flag --{flag} (used at {where}) is missing from --help")
    for flag in DOCUMENTED_FLAGS:
        if flag not in in_help:
            failures.append(
                f"documented flag --{flag} is missing from --help")

    print(f"check_docs: {len(used)} doc-used flag(s), "
          f"{len(DOCUMENTED_FLAGS)} documented flag(s), "
          f"{len(failures)} failure(s)")
    for failure in failures:
        print(f"  FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--extract", metavar="OUT.cpp",
                      help="write the generated snippet translation unit")
    mode.add_argument("--audit-help", metavar="HELP.txt",
                      help="audit docs flags against captured --help text")
    args = ap.parse_args(argv)

    if args.extract:
        return extract(args.root, args.extract)
    return audit_help(args.root, args.audit_help)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
