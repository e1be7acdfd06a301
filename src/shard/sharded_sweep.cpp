#include "shard/sharded_sweep.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"

namespace mstep::shard {

// One lockstep phase: which class to update (or save/final-solve) and
// which class's mailboxes to drain first — statically the class the
// previous phase updated, which is exactly when its ghosts become stale.
struct ShardedMulticolorMStepSsor::Phase {
  enum Kind { kForward, kBackward, kSave, kFinal } kind;
  int cls;        // class updated (kForward/kBackward/kFinal) or 0 (kSave)
  int drain_cls;  // class to drain at phase start; -1 for none
  double alpha;   // step coefficient (kForward/kBackward/kFinal)
};

ShardedMulticolorMStepSsor::ShardedMulticolorMStepSsor(
    const color::ColoredSystem& cs, std::vector<double> alphas,
    const ShardPlan& plan, par::ThreadPool& pool, core::KernelLog* log,
    bool verify_halo, la::SegmentLayout layout)
    : cs_(&cs), alphas_(std::move(alphas)), pool_(&pool), log_(log),
      verify_halo_(verify_halo), splits_(color::compute_row_splits(cs)),
      census_(color::compute_class_diagonal_census(cs, splits_)),
      plan_(plan), halo_(cs, plan_, splits_) {
  if (alphas_.empty()) {
    throw std::invalid_argument("ShardedMulticolorMStepSsor: need m >= 1");
  }
  const int nc = cs.num_classes();
  const int ns = plan_.num_shards();
  const auto& rp = cs.matrix.row_ptr();

  // The serial sweep's per-class segments, restricted to each shard's
  // strip: neg_sums gives each row the same bits however the rows are
  // split, so a strip's sums equal the whole-class sums.
  lower_.resize(ns);
  upper_.resize(ns);
  for (int s = 0; s < ns; ++s) {
    lower_[s].reserve(nc);
    upper_[s].reserve(nc);
    for (int c = 0; c < nc; ++c) {
      lower_[s].push_back(la::ClassSegments::build(
          layout, cs.matrix, rp.data(), splits_.lo_end.data(),
          plan_.begin(s, c), plan_.end(s, c)));
      upper_[s].push_back(la::ClassSegments::build(
          layout, cs.matrix, splits_.up_begin.data(), rp.data() + 1,
          plan_.begin(s, c), plan_.end(s, c)));
    }
  }

  mail_.reserve(static_cast<std::size_t>(ns) * ns * nc);
  for (int to = 0; to < ns; ++to) {
    for (int from = 0; from < ns; ++from) {
      for (int c = 0; c < nc; ++c) {
        mail_.emplace_back(halo_.recv_rows(to, from, c).size());
      }
    }
  }
  zloc_.resize(ns);
}

void ShardedMulticolorMStepSsor::run_phase(const Phase& phase, const Vec& r,
                                           Vec& z) const {
  const int ns = plan_.num_shards();
  const int nc = plan_.num_classes();
  const int c = phase.cls;
  const double a = phase.alpha;

  pool_->for_each(0, ns, [&](index_t shard_idx) {
    const int sh = static_cast<int>(shard_idx);
    const obs::Span shard_span("shard");
    Vec& zl = zloc_[sh];

    // (1) Receive: drain the previous phase's class into the replica.
    // Every shard drains every phase — even one with no rows to update —
    // so a mailbox is always consumed before its next post overwrites it.
    if (phase.drain_cls >= 0) {
      for (int from = 0; from < ns; ++from) {
        const auto& rows = halo_.recv_rows(sh, from, phase.drain_cls);
        if (rows.empty()) continue;
        const obs::Span halo_span("halo_exchange");
        mailbox(sh, from, phase.drain_cls).take(zl, rows, verify_halo_);
        obs::count(obs::Counter::kHaloExchanges, 1);
        obs::count(obs::Counter::kHaloDoubles,
                   static_cast<long long>(rows.size()));
      }
    }

    const index_t row_begin = plan_.begin(sh, c);
    const index_t row_end = plan_.end(sh, c);

    if (phase.kind == Phase::kSave) {
      // Class 0's upper sums scatter straight into y (the save phase).
      const la::ClassSegments& segs = upper_[sh][0];
      segs.neg_sums(zl.data(), y_.data(), 0, segs.num_parts());
      return;
    }
    if (phase.kind == Phase::kFinal) {
      for (index_t i = row_begin; i < row_end; ++i) {
        z[i] = (y_[i] + alphas_[0] * r[i]) / splits_.diag[i];
      }
      return;
    }
    if (row_begin == row_end && halo_.boundary_rows(sh, c).empty()) return;

    // (2) Segment sums from the local replica.
    const la::ClassSegments& segs =
        (phase.kind == Phase::kForward ? lower_ : upper_)[sh][c];
    segs.neg_sums(zl.data(), xl_.data(), 0, segs.num_parts());

    const bool last = phase.kind == Phase::kForward && c == nc - 1;
    const auto update_row = [&](index_t i) {
      const double x = xl_[i];
      z[i] = (x + y_[i] + a * r[i]) / splits_.diag[i];
      zl[i] = z[i];
      y_[i] = last ? 0.0 : x;
    };

    // (3) Boundary rows first, then post — the send overlaps (4).
    const std::vector<index_t>& boundary = halo_.boundary_rows(sh, c);
    for (const index_t i : boundary) update_row(i);
    for (int to = 0; to < ns; ++to) {
      const auto& rows = halo_.send_rows(sh, to, c);
      if (rows.empty()) continue;
      const obs::Span halo_span("halo_exchange");
      mailbox(to, sh, c).post(z, rows);
    }

    // (4) Interior rows: the owned strip minus the (sorted) boundary.
    std::size_t b = 0;
    for (index_t i = row_begin; i < row_end; ++i) {
      if (b < boundary.size() && boundary[b] == i) {
        ++b;
        continue;
      }
      update_row(i);
    }
  });
}

void ShardedMulticolorMStepSsor::apply(const Vec& r, Vec& z) const {
  const index_t n = cs_->size();
  assert(static_cast<index_t>(r.size()) == n);
  const int m = static_cast<int>(alphas_.size());
  const int nc = cs_->num_classes();
  const int ns = plan_.num_shards();

  z.assign(n, 0.0);
  y_.assign(n, 0.0);
  xl_.resize(n);  // written per class before it is read
  for (int s = 0; s < ns; ++s) zloc_[s].assign(n, 0.0);

  // Emitted from the calling thread after each phase — the exact stream
  // of the serial MulticolorMStepSsor.
  auto log_class = [&](int c, bool is_lower) {
    if (!log_) return;
    const index_t len = cs_->class_size(c);
    log_->spmv_diagonals(len, is_lower ? census_.lower[c] : census_.upper[c]);
    log_->vec_op(len, 3);
    log_->diag_op(len);
  };

  for (int s = 1; s <= m; ++s) {
    const obs::Span sweep_span("sweep");
    const double a = alphas_[m - s];
    // Forward half-sweep.  F(0) drains nothing: the preceding phase (the
    // previous step's save) updates no z class.
    for (int c = 0; c < nc; ++c) {
      run_phase({Phase::kForward, c, c - 1, a}, r, z);
      log_class(c, /*is_lower=*/true);
    }
    // Backward half-sweep nc-2..1; B(c) drains c+1 (updated by F(nc-1)
    // respectively B(c+1), always the immediately preceding phase).
    for (int c = nc - 2; c >= 1; --c) {
      run_phase({Phase::kBackward, c, c + 1, a}, r, z);
      log_class(c, /*is_lower=*/false);
    }
    // Class-0 save; drains the class the previous phase updated.
    run_phase({Phase::kSave, 0, nc >= 2 ? 1 : 0, a}, r, z);
    if (log_) {
      log_->spmv_diagonals(cs_->class_size(0), census_.upper[0]);
      log_->end_precond_step();
    }
  }
  // Final deferred class-0 solve with alpha_0: reads only owned y and r.
  run_phase({Phase::kFinal, 0, -1, alphas_[0]}, r, z);
  if (log_) {
    log_->vec_op(cs_->class_size(0), 2);
    log_->diag_op(cs_->class_size(0));
  }
}

std::string ShardedMulticolorMStepSsor::name() const {
  return "sharded-multicolor-ssor-m" + std::to_string(alphas_.size()) + "-s" +
         std::to_string(plan_.num_shards());
}

}  // namespace mstep::shard
