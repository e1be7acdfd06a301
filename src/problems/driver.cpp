#include "problems/driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/params.hpp"
#include "io/matrix_market.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mstep::problems {

namespace {

std::string exception_message(const std::exception_ptr& e) {
  if (!e) return "";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

Problem resolve_problem(const DriverInput& input) {
  const bool from_catalog = !input.problem.empty();
  const bool from_file = !input.matrix_path.empty();
  if (from_catalog == from_file) {
    throw std::invalid_argument(
        "give exactly one of --problem=<spec> and --matrix=<file.mtx>");
  }
  if (!input.rhs_path.empty() && !from_file) {
    throw std::invalid_argument(
        "--rhs only applies to --matrix input");
  }

  if (from_catalog) {
    return ProblemRegistry::instance().create(input.problem);
  }

  const io::MmMatrix mm = io::read_matrix_market(input.matrix_path);
  if (mm.matrix.rows() != mm.matrix.cols()) {
    throw std::invalid_argument(
        "matrix " + input.matrix_path + " is " +
        std::to_string(mm.matrix.rows()) + "x" +
        std::to_string(mm.matrix.cols()) + "; the solver wants square SPD");
  }
  Problem p;
  p.spec = {input.matrix_path, {}};
  p.description = "Matrix Market " + io::to_string(mm.header.format) + " " +
                  io::to_string(mm.header.field) + " " +
                  io::to_string(mm.header.symmetry) + " file";
  p.matrix = mm.matrix;
  p.dia_friendly = mm.dia_friendly;
  if (!input.rhs_path.empty()) {
    p.rhs = io::read_vector(input.rhs_path);
    if (p.rhs.size() != static_cast<std::size_t>(p.matrix.rows())) {
      throw std::invalid_argument(
          "right-hand side " + input.rhs_path + " has " +
          std::to_string(p.rhs.size()) + " entries, matrix has " +
          std::to_string(p.matrix.rows()) + " rows");
    }
  } else {
    // No RHS file: manufacture b = K*1, making all-ones the known
    // solution.
    p.exact_solution.assign(static_cast<std::size_t>(p.matrix.rows()), 1.0);
    p.rhs.resize(p.exact_solution.size());
    p.matrix.multiply(p.exact_solution, p.rhs);
  }
  return p;
}

namespace {

DriverResult run_resolved(const Problem& problem,
                          const solver::SolverConfig& config, int nrhs,
                          const std::string& source,
                          const std::string& problem_name) {
  if (nrhs < 1) {
    throw std::invalid_argument("--nrhs must be >= 1");
  }
  DriverResult r;
  r.source = source;
  r.problem_name = problem_name;
  r.description = problem.description;
  r.n = problem.matrix.rows();
  r.nnz = problem.matrix.nnz();
  r.bandwidth = problem.matrix.bandwidth();
  r.nonzero_diagonals = problem.matrix.num_nonzero_diagonals();
  r.dia_friendly = problem.dia_friendly;
  r.used_classes = problem.has_classes();
  r.config = config;

  std::vector<Vec> bs;
  bs.reserve(static_cast<std::size_t>(nrhs));
  bs.push_back(problem.rhs);
  util::Rng rng(0x6d737465);  // "mste": one fixed seed, reproducible runs
  for (int j = 1; j < nrhs; ++j) {
    bs.push_back(rng.uniform_vector(problem.rhs.size()));
  }

  // Always record the per-iteration convergence history: it is pure
  // observability (a timer read and a push_back per iteration, no change
  // to the floating-point data flow), and the report surfaces it.  The
  // reported config stays the caller's, so config strings are stable.
  solver::SolverConfig solve_config = config;
  solve_config.record_history = true;
  const auto solver = solver::Solver::from_config(solve_config);
  util::Timer setup_timer;
  const auto prepared = problem.has_classes()
                            ? solver.prepare(problem.matrix, problem.classes)
                            : solver.prepare(problem.matrix);
  r.setup_seconds = setup_timer.seconds();
  r.format_selected = solver::to_string(prepared.resolved_format());
  r.sweep_format = prepared.sweep_format();

  r.batch = prepared.solveMany(bs);
  for (const auto& rep : r.batch.reports) {
    r.threads = std::max(r.threads, rep.threads);
  }
  r.error_messages.reserve(r.batch.size());
  for (const auto& e : r.batch.errors) {
    r.error_messages.push_back(exception_message(e));
  }

  r.error_vs_exact = std::numeric_limits<double>::quiet_NaN();
  r.has_exact = problem.has_exact();
  if (r.has_exact && r.batch.ok(0)) {
    const Vec& u = r.batch.reports[0].solution;
    const Vec& star = problem.exact_solution;
    double err = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < star.size(); ++i) {
      err = std::max(err, std::abs(u[i] - star[i]));
      scale = std::max(scale, std::abs(star[i]));
    }
    r.error_vs_exact = scale > 0.0 ? err / scale : err;
  }
  return r;
}

}  // namespace

DriverResult run(const DriverInput& input,
                 const solver::SolverConfig& config) {
  const Problem problem = resolve_problem(input);
  const bool file = !input.matrix_path.empty();
  return run_resolved(problem, config, input.nrhs, file ? "file" : "catalog",
                      file ? input.matrix_path : problem.spec.to_string());
}

DriverResult run(const Problem& problem, const solver::SolverConfig& config,
                 int nrhs) {
  return run_resolved(problem, config, nrhs, "catalog",
                      problem.spec.to_string());
}

util::Json report_json(const DriverResult& r) {
  util::Json iterations = util::Json::array();
  util::Json delta_inf = util::Json::array();
  util::Json errors = util::Json::array();
  for (std::size_t i = 0; i < r.batch.size(); ++i) {
    const bool ok = r.batch.ok(i);
    iterations.push(ok ? util::Json(r.batch.reports[i].iterations())
                       : util::Json());
    delta_inf.push(ok
                       ? util::Json(r.batch.reports[i].result.final_delta_inf)
                       : util::Json());
    errors.push(r.error_messages[i]);
  }

  util::Json j = util::Json::object();
  j.set("tool", "mstep_solve")
      .set("source", r.source)
      .set("problem", r.problem_name)
      .set("description", r.description)
      .set("n", r.n)
      .set("nnz", r.nnz)
      .set("bandwidth", r.bandwidth)
      .set("nonzero_diagonals", r.nonzero_diagonals)
      .set("dia_friendly", r.dia_friendly)
      .set("used_classes", r.used_classes)
      .set("format_selected", r.format_selected)
      .set("sweep_format", r.sweep_format)
      .set("config", r.config.to_string())
      .set("nrhs", static_cast<long long>(r.batch.size()))
      .set("concurrency", r.batch.concurrency)
      .set("threads", r.threads)
      .set("setup_seconds", r.setup_seconds)
      .set("wall_seconds", r.batch.wall_seconds)
      .set("solves_per_second", r.batch.solves_per_second())
      .set("converged", r.all_converged())
      .set("iterations", std::move(iterations))
      .set("final_delta_inf", std::move(delta_inf))
      .set("rhs_errors", std::move(errors))
      .set("error_vs_exact",
           r.has_exact ? util::Json(r.error_vs_exact) : util::Json());

  // Spectrum estimate + condition-number proxy (the paper's tables read
  // iteration counts against kappa(M^-1 K)), and RHS 0's per-iteration
  // convergence history.  predicted_condition can be +inf (non-positive
  // eigenvalue map); the JSON writer renders that as null, as it does
  // the m = 0 identity preconditioner's empty alpha vector.
  const auto& rep0 = r.batch.reports[0];
  util::Json interval = util::Json::object();
  interval.set("lambda_min", rep0.interval.lambda_min)
      .set("lambda_max", rep0.interval.lambda_max);
  util::Json history = util::Json::array();
  if (r.batch.ok(0)) {
    for (const auto& h : rep0.result.history) {
      history.push(util::Json::object()
                       .set("value", h.value)
                       .set("alpha", h.alpha)
                       .set("seconds", h.seconds));
    }
  }
  j.set("interval", std::move(interval))
      .set("condition_proxy",
           rep0.alphas.empty()
               ? util::Json()
               : util::Json(core::predicted_condition(rep0.alphas,
                                                      rep0.interval)))
      .set("history", std::move(history));
  return j;
}

}  // namespace mstep::problems
