// Execution policy for the solve-path hot kernels.
//
// One Execution owns (at most) one ThreadPool and threads the three kernel
// families Algorithm 1 spends its time in — multicolor sweeps (through the
// pool, see core/multicolor_mstep), the outer SpMV, and the BLAS-1 vector
// ops — while guaranteeing BITWISE the serial result for any thread count:
//
//  * elementwise ops (axpy, xpay) are partitioned by index, and the SpMV
//    by the matrix's own parts (CSR and DIA rows, SELL slices) through its
//    multiply_parts; every element's accumulation order is the serial one;
//  * reductions use the fixed-block scheme of la::kReductionBlock: block
//    partials are computed independently (by whatever thread), then
//    combined in block order on the caller — exactly la::dot's serial sum;
//  * the max-reduction of the convergence test is order-insensitive.
//
// A default-constructed Execution is the serial policy (no pool, no
// threads); Execution(n) runs on n threads including the caller.  Several
// threads may call the kernels of one Execution at once: reduction scratch
// belongs to the calling thread, and the pool queues their dispatches.
#pragma once

#include <cassert>
#include <memory>

#include "la/vector.hpp"
#include "par/thread_pool.hpp"

namespace mstep::par {

/// Below this many elements the pool dispatch costs more than it saves:
/// the Execution kernels fall back to their serial twins, and the facade
/// keeps the serial multicolor sweep.  Falling back never changes results
/// — the parallel kernels are bitwise the serial ones at any size.
inline constexpr index_t kSerialCutoff = 2048;

class Execution {
 public:
  /// Serial policy: every kernel runs on the calling thread.
  Execution() = default;
  /// Pool of `threads` total threads (including the caller); <= 1 is the
  /// serial policy.  Throws std::invalid_argument on a negative count.
  explicit Execution(int threads);

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  [[nodiscard]] bool parallel() const { return pool_ != nullptr; }
  [[nodiscard]] int threads() const { return pool_ ? pool_->threads() : 1; }
  /// The pool backing the multicolor sweep; nullptr when serial.
  [[nodiscard]] ThreadPool* pool() const { return pool_.get(); }

  // ---- deterministic reductions -------------------------------------------
  [[nodiscard]] double dot(const Vec& x, const Vec& y) const;
  [[nodiscard]] double nrm2(const Vec& x) const;

  // ---- elementwise vector ops ---------------------------------------------
  /// y <- a*x + y
  void axpy(double a, const Vec& x, Vec& y) const;
  /// y <- x + b*y
  void xpay(const Vec& x, double b, Vec& y) const;
  /// y <- a*x (y is resized; the scaled-residual copy of the m-step sweep)
  void scale_copy(double a, const Vec& x, Vec& y) const;
  /// w <- x .* y (w is resized; diagonal-splitting P^{-1} application)
  void hadamard(const Vec& x, const Vec& y, Vec& w) const;
  /// Fused CG update u <- u + a*p, returning max_i |a * p[i]| (the
  /// delta-inf stopping quantity of Algorithm 1).
  double step_update_max(double a, const Vec& p, Vec& u) const;

  // ---- sparse matrix-vector products --------------------------------------
  /// y <- A x for any matrix type M with rows(), cols(), num_parts() and
  /// multiply_parts(x, y, part_begin, part_end, subtract) — la::CsrMatrix,
  /// la::DiaMatrix, la::SellMatrix — split over its parts.
  template <class M>
  void spmv(const M& a, const Vec& x, Vec& y) const {
    assert(static_cast<index_t>(x.size()) == a.cols());
    y.resize(a.rows());
    partitioned(a.rows(), a.num_parts(), [&](index_t b, index_t e) {
      a.multiply_parts(x.data(), y.data(), b, e, /*subtract=*/false);
    });
  }
  /// y <- y - A x
  template <class M>
  void spmv_sub(const M& a, const Vec& x, Vec& y) const {
    assert(static_cast<index_t>(x.size()) == a.cols());
    assert(static_cast<index_t>(y.size()) == a.rows());
    partitioned(a.rows(), a.num_parts(), [&](index_t b, index_t e) {
      a.multiply_parts(x.data(), y.data(), b, e, /*subtract=*/true);
    });
  }

 private:
  /// body(b, e) over parts [0, parts) — vector elements, or a matrix's
  /// parts, which partition its rows — on the pool when there is one and
  /// there are at least kSerialCutoff rows, else in one call.
  template <class Body>
  void partitioned(index_t rows, index_t parts, const Body& body) const {
    if (!pool_ || rows < kSerialCutoff) {
      body(0, parts);
    } else {
      pool_->for_range(0, parts, body);
    }
  }

  /// The fixed-block reduction of la::kReductionBlock over [0, n): block
  /// k's partial block(b, e), computed on the pool when there is one and
  /// n >= kSerialCutoff, folded in block order as acc = combine(acc,
  /// partial) from 0.0 — the same partials and order on every path.
  template <class Block, class Combine>
  double blocked_reduce(index_t n, const Block& block,
                        const Combine& combine) const;

  std::unique_ptr<ThreadPool> pool_;
};

/// The process-wide serial policy, for call sites that take an optional
/// Execution and received none.  It is stateless, so sharing one instance
/// across threads is safe.
[[nodiscard]] const Execution& serial_execution();

}  // namespace mstep::par
