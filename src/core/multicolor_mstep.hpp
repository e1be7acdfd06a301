// Algorithm 2 of the paper: the m-step multicolor SSOR preconditioner with
// the Conrad–Wallach auxiliary vector.
//
// One m-step SSOR application is m symmetric multicolor SOR sweeps on
// K z = alpha_s r from z = 0.  A naive symmetric sweep computes both the
// strictly-lower and strictly-upper coupling sums in each half-sweep.  The
// Conrad–Wallach trick (1979) stores the lower sums computed during the
// forward half in an auxiliary vector y and reuses them in the backward
// half (and vice versa across steps), so each full symmetric sweep performs
// only ONE traversal of the off-diagonal entries — "only as expensive as
// one Multicolor SOR iteration" (Section 3).
//
// Two further reuse opportunities from the paper are implemented exactly:
//  * the backward half-sweep skips the last colour class (its value would
//    be identical to the forward value just computed), and
//  * the backward update of the FIRST class is deferred: within the step
//    loop the next forward pass performs it (only the alpha coefficient
//    differs, and nobody reads the value in between), and after the last
//    step an explicit final solve with alpha_0 completes it — the "(3)"
//    line after the loop in Algorithms 2/3.
//
// The operator is mathematically identical to
// MStepPreconditioner(SsorSplitting(omega = 1)) applied to the
// colour-permuted matrix; the tests verify the equivalence to rounding.
//
// Each class phase (forward, backward, class-0 save, final solve) is ONE
// fused segment pass (la::ClassSegments::sweep): a row's coupling sum is
// formed in registers and fed straight into its update, so the sweep keeps
// no scratch vector beside y and has no row loop of its own.
//
// Threads: given a pool of t threads, every class phase is ONE pool
// dispatch over t static strips — strip k is the k-th equal share of the
// class's segment windows (la::ClassSegments::strip), so it sums and
// updates one contiguous row range.  That is the paper's "equal
// distribution of each color" per processor.  Because the class diagonal
// blocks are diagonal, rows of a class read only other-class values and
// write only themselves: the strips never race and the threaded sweep is
// BITWISE the serial one.
// Serial is the same loop with one strip, called directly.
#pragma once

#include <memory>
#include <vector>

#include "color/coloring.hpp"
#include "core/kernel_log.hpp"
#include "core/preconditioner.hpp"
#include "la/class_segments.hpp"

namespace mstep::par {
class ThreadPool;  // par/thread_pool.hpp
}  // namespace mstep::par

namespace mstep::core {

/// The read-only half of the sweep: row splits, the class diagonal census
/// and every class's strictly-lower / strictly-upper coupling segments in
/// one layout.  Built once per pipeline and shared by every sweep over it
/// — serial, threaded, each batch lane, each daemon cache hit — which own
/// only their y vectors.
class SweepPlan {
 public:
  /// `cs` must outlive the plan; its diagonal class blocks must be
  /// diagonal (throws std::invalid_argument otherwise).
  [[nodiscard]] static std::shared_ptr<const SweepPlan> build(
      const color::ColoredSystem& cs, la::SegmentLayout layout);

  [[nodiscard]] const color::ColoredSystem& system() const { return *cs_; }
  [[nodiscard]] la::SegmentLayout layout() const { return layout_; }
  [[nodiscard]] const color::RowSplits& splits() const { return splits_; }
  [[nodiscard]] const color::ClassDiagonalCensus& census() const {
    return census_;
  }
  [[nodiscard]] const la::ClassSegments& lower(int c) const {
    return lower_[c];
  }
  [[nodiscard]] const la::ClassSegments& upper(int c) const {
    return upper_[c];
  }
  /// Stored doubles over every class's segments.
  [[nodiscard]] std::size_t stored_values() const;

  /// Plans built so far in this process — lets tests prove that a solve
  /// path reuses a plan instead of building one per call.
  [[nodiscard]] static long long builds();

 private:
  SweepPlan() = default;

  const color::ColoredSystem* cs_ = nullptr;
  la::SegmentLayout layout_ = la::SegmentLayout::kSell;
  color::RowSplits splits_;
  color::ClassDiagonalCensus census_;
  std::vector<la::ClassSegments> lower_;
  std::vector<la::ClassSegments> upper_;
};

class MulticolorMStepSsor : public Preconditioner {
 public:
  /// Builds its own plan in the SELL layout (the default CSR format's).
  /// `cs` must remain alive; its diagonal class blocks must be diagonal
  /// (verified, throws std::invalid_argument otherwise).
  /// `alphas[i]` is the coefficient of G^i, m = alphas.size().  `pool`
  /// (optional, must outlive the sweep) runs each class phase across its
  /// threads; `log` receives the same kernel stream either way, emitted
  /// from the calling thread.
  MulticolorMStepSsor(const color::ColoredSystem& cs,
                      std::vector<double> alphas, KernelLog* log = nullptr,
                      par::ThreadPool* pool = nullptr);
  /// Sweeps over a shared plan (whose system must remain alive).
  MulticolorMStepSsor(std::shared_ptr<const SweepPlan> plan,
                      std::vector<double> alphas, KernelLog* log = nullptr,
                      par::ThreadPool* pool = nullptr);

  [[nodiscard]] index_t size() const override { return cs_->size(); }
  void apply(const Vec& r, Vec& z) const override;
  [[nodiscard]] int steps() const override {
    return static_cast<int>(alphas_.size());
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const std::shared_ptr<const SweepPlan>& plan() const {
    return plan_;
  }

  /// Off-diagonal entry traversals per apply() — the quantity the
  /// Conrad–Wallach trick halves.  Exposed for the ablation bench.
  [[nodiscard]] long long offdiag_traversals_per_apply() const;

 private:
  std::shared_ptr<const SweepPlan> plan_;
  const color::ColoredSystem* cs_;
  std::vector<double> alphas_;
  KernelLog* log_;
  par::ThreadPool* pool_;  // null: serial, one strip
  mutable Vec y_;  // Conrad–Wallach auxiliary vector
};

}  // namespace mstep::core
