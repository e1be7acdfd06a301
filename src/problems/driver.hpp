// The mstep_solve driver core: run ANY problem — a catalog spec or a
// Matrix Market file pair — through the full SolverConfig pipeline and
// produce a machine-readable report.
//
// The CLI tool (tools/mstep_solve.cpp) is a thin flag-parsing wrapper
// around run()/report_json(); tests/test_catalog_io.cpp drives the same
// functions, so what CI smoke-tests is exactly what the tests assert
// (catalog x splitting coverage, serial/threaded/batched bitwise
// identity).
#pragma once

#include <string>
#include <vector>

#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/json_writer.hpp"

namespace mstep::problems {

/// Where the linear system comes from.  Exactly one of `problem` (catalog
/// spec string) and `matrix_path` (Matrix Market file) must be set; a
/// file matrix may bring its own right-hand side via `rhs_path`, and
/// defaults to b = K*1 otherwise — which makes the all-ones vector the
/// known solution, so file solves report a true error too.
struct DriverInput {
  std::string problem;      // catalog spec, e.g. "poisson3d:n=32"
  std::string matrix_path;  // .mtx matrix file
  std::string rhs_path;     // optional .mtx vector file
  /// Total right-hand sides to solve.  The first is the problem's own;
  /// the rest are deterministic pseudo-random vectors, so --batch has
  /// real work to schedule.
  int nrhs = 1;
};

/// Everything one driver run produced, ready for report_json().
struct DriverResult {
  std::string source;        // "catalog" | "file"
  std::string problem_name;  // resolved spec string or the matrix path
  std::string description;
  index_t n = 0;
  index_t nnz = 0;
  index_t bandwidth = 0;
  index_t nonzero_diagonals = 0;
  bool dia_friendly = false;
  bool used_classes = false;  // closed-form classes vs greedy colouring
  /// The operator layout the solve actually ran on ("csr" | "dia" |
  /// "sell") — `--format=auto` resolved through the bandedness/occupancy
  /// probes at prepare time; equal to the requested format otherwise.
  std::string format_selected = "csr";
  /// The layout the multicolour sweep's coupling segments ran on ("sell"
  /// | "dia"), or "none" when no multicolour sweep ran; "dia" exactly when
  /// a sweep ran on a DIA operator.
  std::string sweep_format = "none";
  solver::SolverConfig config;
  int threads = 1;  // kernel threads the solves ran on (SolveReport::threads)
  double setup_seconds = 0.0;  // prepare(): colouring + splitting + alphas
  solver::BatchReport batch;   // reports[i] belongs to right-hand side i
  std::vector<std::string> error_messages;  // per failed RHS, "" when ok
  /// Relative |u - u*|_inf / |u*|_inf of the first right-hand side when
  /// the problem knows its exact solution; NaN otherwise.
  double error_vs_exact = 0.0;
  bool has_exact = false;

  [[nodiscard]] bool all_converged() const {
    return batch.num_failed() == 0 && batch.all_converged();
  }
};

/// Resolve the input to a Problem (catalog or Matrix Market).  Throws
/// std::invalid_argument on a bad spec/config and io::MatrixMarketError
/// on a bad file.
[[nodiscard]] Problem resolve_problem(const DriverInput& input);

/// Resolve, prepare, and solve every right-hand side (always through
/// solveMany — with batch <= 1 and no pool that is the sequential serial
/// path, so serial and batched runs flow through one code path and the
/// engine's bitwise guarantee applies).
[[nodiscard]] DriverResult run(const DriverInput& input,
                               const solver::SolverConfig& config);

/// Same, on an already-resolved problem — for callers sweeping many
/// configs over one system (the catalog bench) without regenerating it
/// per config.  `nrhs` as in DriverInput.
[[nodiscard]] DriverResult run(const Problem& problem,
                               const solver::SolverConfig& config,
                               int nrhs = 1);

/// The stable machine-readable report schema (tools/check_report.py
/// validates it in CI).
[[nodiscard]] util::Json report_json(const DriverResult& r);

}  // namespace mstep::problems
