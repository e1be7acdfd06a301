#include "core/multicolor_mstep.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "par/thread_pool.hpp"

namespace mstep::core {

namespace {
std::atomic<long long> g_plan_builds{0};
}  // namespace

std::shared_ptr<const SweepPlan> SweepPlan::build(
    const color::ColoredSystem& cs, la::SegmentLayout layout,
    std::shared_ptr<const la::DiaMatrix> dia) {
  const bool dia_layout = layout == la::SegmentLayout::kDia;
  if (dia && (!dia_layout || dia->block_start() != cs.class_start)) {
    throw std::invalid_argument(
        "SweepPlan: DiaMatrix blocks are not the colour classes");
  }
  if (dia_layout && !dia) {
    dia = std::make_shared<la::DiaMatrix>(
        la::DiaMatrix::from_csr(cs.matrix, cs.class_start));
  }
  g_plan_builds.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<SweepPlan> plan(new SweepPlan());
  plan->cs_ = &cs;
  plan->layout_ = layout;
  plan->splits_ = color::compute_row_splits(cs);
  plan->dia_ = std::move(dia);

  // Each class's strictly-lower / strictly-upper row segments, laid out
  // once: SELL slices from the CSR rows, or views of the class's block of
  // dia_ (its negative and its positive offsets).  The sweeps sum and
  // update a whole class at a time through ClassSegments::sweep —
  // vectorized ACROSS the rows of a class, which the multicolor ordering
  // makes independent — and a threaded sweep runs the identical kernel
  // over strips of parts, which is what keeps serial == threaded ==
  // SIMD-on == SIMD-off.
  const auto& rp = cs.matrix.row_ptr();
  const int nc = cs.num_classes();
  const index_t n = cs.size();
  plan->lower_.reserve(nc);
  plan->upper_.reserve(nc);
  for (int c = 0; c < nc; ++c) {
    if (dia_layout) {
      plan->lower_.push_back(la::ClassSegments::build(*plan->dia_, c, -n, -1));
      plan->upper_.push_back(la::ClassSegments::build(*plan->dia_, c, 1, n));
      // The census is the segments' diagonal count: no CSR pass.
      plan->census_.lower.push_back(plan->lower_.back().dia().num_diagonals());
      plan->census_.upper.push_back(plan->upper_.back().dia().num_diagonals());
      continue;
    }
    plan->lower_.push_back(la::ClassSegments::build(
        cs.matrix, rp.data(), plan->splits_.lo_end.data(), cs.class_start[c],
        cs.class_start[c + 1]));
    plan->upper_.push_back(la::ClassSegments::build(
        cs.matrix, plan->splits_.up_begin.data(), rp.data() + 1,
        cs.class_start[c], cs.class_start[c + 1]));
  }
  if (!dia_layout) {
    plan->census_ = color::compute_class_diagonal_census(cs, plan->splits_);
  }
  return plan;
}

std::size_t SweepPlan::stored_values() const {
  std::size_t total = 0;
  for (const la::ClassSegments& s : lower_) total += s.stored_values();
  for (const la::ClassSegments& s : upper_) total += s.stored_values();
  return total;
}

long long SweepPlan::builds() {
  return g_plan_builds.load(std::memory_order_relaxed);
}

MulticolorMStepSsor::MulticolorMStepSsor(const color::ColoredSystem& cs,
                                         std::vector<double> alphas,
                                         KernelLog* log, par::ThreadPool* pool)
    : MulticolorMStepSsor(SweepPlan::build(cs, la::SegmentLayout::kSell),
                          std::move(alphas), log, pool) {}

MulticolorMStepSsor::MulticolorMStepSsor(std::shared_ptr<const SweepPlan> plan,
                                         std::vector<double> alphas,
                                         KernelLog* log, par::ThreadPool* pool)
    : plan_(std::move(plan)), cs_(&plan_->system()),
      alphas_(std::move(alphas)), log_(log), pool_(pool) {
  if (alphas_.empty()) {
    throw std::invalid_argument("MulticolorMStepSsor: need m >= 1");
  }
}

void MulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const index_t n = cs_->size();
  assert(static_cast<index_t>(r.size()) == n);
  const int m = static_cast<int>(alphas_.size());
  const int nc = cs_->num_classes();

  z.assign(n, 0.0);
  y_.assign(n, 0.0);

  const SweepPlan& plan = *plan_;
  const index_t strips = pool_ ? pool_->threads() : 1;
  using Mode = la::simd::RowUpdate::Mode;
  la::simd::RowUpdate u;
  u.r = r.data();
  u.diag = plan.splits().diag.data();
  u.y = y_.data();
  u.z = z.data();
  // One class phase: one fused segment pass per strip — called directly
  // when serial, one pool dispatch otherwise.  Strips write disjoint rows.
  auto pass = [&](const la::ClassSegments& segs, Mode mode, double a) {
    u.mode = mode;
    u.alpha = a;
    auto body = [&](index_t k) {
      const la::ClassSegments::Strip s = segs.strip(k, strips);
      segs.sweep(z.data(), u, s.part_begin, s.part_end);
    };
    if (strips == 1) {
      body(0);
    } else {
      pool_->for_each(0, strips, body);
    }
  };
  auto log_class = [&](int c, bool lower) {
    if (!log_) return;
    const index_t len = cs_->class_size(c);
    log_->spmv_diagonals(len, lower ? plan.census().lower[c]
                                    : plan.census().upper[c]);
    log_->vec_op(len, 3);  // x + y + alpha*r fused adds
    log_->diag_op(len);    // divide by D_c
  };

  for (int s = 1; s <= m; ++s) {
    const obs::Span sweep_span("sweep");
    const double a = alphas_[m - s];
    // Forward half-sweep.  For class 0 this doubles as the deferred
    // backward update of the previous step (y holds its upper sums).
    // The last class has no upper couplings: its "saved" value for the
    // next use must be the (empty) upper sum, not the lower sum.
    for (int c = 0; c < nc; ++c) {
      pass(plan.lower(c), c == nc - 1 ? Mode::kSolveLast : Mode::kSolve, a);
      log_class(c, /*lower=*/true);
    }
    // Backward half-sweep over classes nc-2 .. 1.  Class nc-1 is skipped
    // (its backward value equals the forward value just computed); class 0
    // is deferred (see below).
    for (int c = nc - 2; c >= 1; --c) {
      pass(plan.upper(c), Mode::kSolve, a);
      log_class(c, /*lower=*/false);
    }
    // Class 0: save its upper sums in y; the solve is deferred to the next
    // forward pass (inner steps) or the final solve below (last step).
    pass(plan.upper(0), Mode::kSave, 0.0);
    if (log_) {
      log_->spmv_diagonals(cs_->class_size(0), plan.census().upper[0]);
      log_->end_precond_step();
    }
  }
  // Final deferred class-0 solve with alpha_0 — line (3) of Algorithm 2.
  pass(plan.upper(0), Mode::kFinal, alphas_[0]);
  if (log_) {
    log_->vec_op(cs_->class_size(0), 2);
    log_->diag_op(cs_->class_size(0));
  }
}

std::string MulticolorMStepSsor::name() const {
  return std::string(pool_ && pool_->threads() > 1 ? "parallel-" : "") +
         "multicolor-ssor-m" + std::to_string(alphas_.size());
}

long long MulticolorMStepSsor::offdiag_traversals_per_apply() const {
  // Per step: all lower entries once (forward) + upper entries of classes
  // nc-2..1 plus class 0 (backward).  Lower and upper entry totals are
  // equal by symmetry; the last class has no upper entries, so the grand
  // total per step is (nnz - n) * (1/2 + 1/2) = nnz - n traversals, i.e.
  // one full off-diagonal traversal per symmetric sweep.
  const long long offdiag = cs_->matrix.nnz() - cs_->size();
  return offdiag * static_cast<long long>(alphas_.size());
}

}  // namespace mstep::core
