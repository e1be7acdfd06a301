// Execution policy for the solve-path hot kernels.
//
// One Execution owns (at most) one ThreadPool and threads the three kernel
// families Algorithm 1 spends its time in — multicolor sweeps (through the
// pool, see core/multicolor_mstep), CSR/DIA SpMV, and the BLAS-1 vector
// ops — while
// guaranteeing BITWISE the serial result for any thread count:
//
//  * elementwise ops (axpy, xpay, SpMV rows / DIA elements) are partitioned
//    by index, and every element's accumulation order is the serial one;
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

#include <memory>

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
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
  void spmv(const la::CsrMatrix& a, const Vec& x, Vec& y) const;
  /// y <- y - A x
  void spmv_sub(const la::CsrMatrix& a, const Vec& x, Vec& y) const;
  void spmv(const la::DiaMatrix& a, const Vec& x, Vec& y) const;
  void spmv_sub(const la::DiaMatrix& a, const Vec& x, Vec& y) const;
  /// SELL-C-sigma forms: partitioned on slice boundaries (slices partition
  /// the rows, so chunks never race on the scattered writes).
  void spmv(const la::SellMatrix& a, const Vec& x, Vec& y) const;
  void spmv_sub(const la::SellMatrix& a, const Vec& x, Vec& y) const;

 private:
  std::unique_ptr<ThreadPool> pool_;
};

/// The process-wide serial policy, for call sites that take an optional
/// Execution and received none.  It is stateless, so sharing one instance
/// across threads is safe.
[[nodiscard]] const Execution& serial_execution();

}  // namespace mstep::par
