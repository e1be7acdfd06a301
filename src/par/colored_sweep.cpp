#include "par/colored_sweep.hpp"

#include <cassert>
#include <stdexcept>

namespace mstep::par {

ParallelMulticolorMStepSsor::ParallelMulticolorMStepSsor(
    const color::ColoredSystem& cs, std::vector<double> alphas,
    ThreadPool& pool, core::KernelLog* log)
    : ParallelMulticolorMStepSsor(
          core::SweepPlan::build(cs, la::SegmentLayout::kSell),
          std::move(alphas), pool, log) {}

ParallelMulticolorMStepSsor::ParallelMulticolorMStepSsor(
    std::shared_ptr<const core::SweepPlan> plan, std::vector<double> alphas,
    ThreadPool& pool, core::KernelLog* log)
    : plan_(std::move(plan)), cs_(&plan_->system()),
      alphas_(std::move(alphas)), pool_(&pool), log_(log) {
  if (alphas_.empty()) {
    throw std::invalid_argument("ParallelMulticolorMStepSsor: need m >= 1");
  }
}

void ParallelMulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const index_t n = cs_->size();
  assert(static_cast<index_t>(r.size()) == n);
  const int m = static_cast<int>(alphas_.size());
  const int nc = cs_->num_classes();

  z.assign(n, 0.0);
  y_.assign(n, 0.0);
  xl_.resize(n);  // written per class before it is read
  Vec& y = y_;
  Vec& xl = xl_;

  const core::SweepPlan& plan = *plan_;
  const Vec& diag = plan.splits().diag;
  const color::ClassDiagonalCensus& census = plan.census();

  // One class phase = sum the class's segment parts into scratch (parts
  // partitioned over the pool; every row is written by exactly one part),
  // barrier, then the elementwise solve/save updates (rows partitioned).
  // Both steps are race-free and order-independent, so the threaded sweep
  // is bitwise the serial one.
  auto class_sums = [&](const la::ClassSegments& segs, const Vec& zin,
                        Vec& out) {
    pool_->for_range(0, segs.num_parts(), [&](index_t b, index_t e) {
      segs.neg_sums(zin.data(), out.data(), b, e);
    });
  };

  // Emitted from the calling thread after each class sweep — the exact
  // stream of the serial MulticolorMStepSsor.
  auto log_class = [&](int c, bool lower) {
    if (!log_) return;
    const index_t len = cs_->class_size(c);
    log_->spmv_diagonals(len, lower ? census.lower[c] : census.upper[c]);
    log_->vec_op(len, 3);  // x + y + alpha*r fused adds
    log_->diag_op(len);    // divide by D_c
  };

  for (int s = 1; s <= m; ++s) {
    const double a = alphas_[m - s];
    for (int c = 0; c < nc; ++c) {
      const bool last = c == nc - 1;
      class_sums(plan.lower(c), z, xl);
      pool_->for_range(
          cs_->class_start[c], cs_->class_start[c + 1],
          [&, a, last](index_t b, index_t e) {
            for (index_t i = b; i < e; ++i) {
              z[i] = (xl[i] + y[i] + a * r[i]) / diag[i];
              y[i] = last ? 0.0 : xl[i];
            }
          });
      log_class(c, /*lower=*/true);
    }
    for (int c = nc - 2; c >= 1; --c) {
      class_sums(plan.upper(c), z, xl);
      pool_->for_range(
          cs_->class_start[c], cs_->class_start[c + 1],
          [&, a](index_t b, index_t e) {
            for (index_t i = b; i < e; ++i) {
              z[i] = (xl[i] + y[i] + a * r[i]) / diag[i];
              y[i] = xl[i];
            }
          });
      log_class(c, /*lower=*/false);
    }
    // Class 0's upper sums scatter straight into y (the save phase).
    class_sums(plan.upper(0), z, y);
    if (log_) {
      log_->spmv_diagonals(cs_->class_size(0), census.upper[0]);
      log_->end_precond_step();
    }
  }
  pool_->for_range(cs_->class_start[0], cs_->class_start[1],
                   [&](index_t b, index_t e) {
                     for (index_t i = b; i < e; ++i) {
                       z[i] = (y[i] + alphas_[0] * r[i]) / diag[i];
                     }
                   });
  if (log_) {
    log_->vec_op(cs_->class_size(0), 2);
    log_->diag_op(cs_->class_size(0));
  }
}

std::string ParallelMulticolorMStepSsor::name() const {
  return "parallel-multicolor-ssor-m" + std::to_string(alphas_.size());
}

}  // namespace mstep::par
