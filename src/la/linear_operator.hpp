// Minimal square-operator view for the solve path.
//
// Algorithm 1 needs only y = A x (and the derived residual update) from
// the system matrix, so the PCG driver is written against this non-owning
// view rather than a concrete storage format.  One template adapts every
// storage format to it: CSR, the Madsen–Rodrigue–Karush diagonal storage
// the paper times in Section 3.1, and SELL-C-sigma each expose the same
// range product (multiply_parts over num_parts), and MatrixOperator<M>
// runs it serially or through a par::Execution.
#pragma once

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/vector.hpp"
#include "par/execution.hpp"

namespace mstep::la {

/// Non-owning view of a square linear operator.  The viewed matrix must
/// outlive the view.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  [[nodiscard]] virtual index_t rows() const = 0;

  /// y = A x
  virtual void multiply(const Vec& x, Vec& y) const = 0;

  /// y = y - A x
  virtual void multiply_sub(const Vec& x, Vec& y) const = 0;

  /// Execution-policy forms: identical results (bitwise) to the serial
  /// forms, computed through `exec`'s threads when it is parallel.  The
  /// base implementations ignore `exec` and run serially, so custom
  /// operators stay correct without opting in.
  virtual void multiply(const Vec& x, Vec& y,
                        const par::Execution& /*exec*/) const {
    multiply(x, y);
  }
  virtual void multiply_sub(const Vec& x, Vec& y,
                            const par::Execution& /*exec*/) const {
    multiply_sub(x, y);
  }

  /// Number of nonzero (generalized) diagonals — the instrumentation
  /// stream prices an SpMV as this many vector triads (Section 3.1).
  [[nodiscard]] virtual index_t num_nonzero_diagonals() const = 0;

  /// r = b - A x
  void residual(const Vec& b, const Vec& x, Vec& r) const {
    r = b;
    multiply_sub(x, r);
  }
  void residual(const Vec& b, const Vec& x, Vec& r,
                const par::Execution& exec) const {
    r = b;
    multiply_sub(x, r, exec);
  }
};

/// View of a matrix M with multiply, multiply_sub, num_nonzero_diagonals
/// and the range product par::Execution splits (num_parts,
/// multiply_parts).  Every format's products keep their bits under any
/// Execution: SELL's are CSR's, DIA's differ from CSR's in the last place.
template <class M>
class MatrixOperator final : public LinearOperator {
 public:
  explicit MatrixOperator(const M& a) : a_(&a) {}

  [[nodiscard]] index_t rows() const override { return a_->rows(); }
  void multiply(const Vec& x, Vec& y) const override { a_->multiply(x, y); }
  void multiply_sub(const Vec& x, Vec& y) const override {
    a_->multiply_sub(x, y);
  }
  void multiply(const Vec& x, Vec& y,
                const par::Execution& exec) const override {
    exec.spmv(*a_, x, y);
  }
  void multiply_sub(const Vec& x, Vec& y,
                    const par::Execution& exec) const override {
    exec.spmv_sub(*a_, x, y);
  }
  [[nodiscard]] index_t num_nonzero_diagonals() const override {
    return a_->num_nonzero_diagonals();
  }

 private:
  const M* a_;
};

using CsrOperator = MatrixOperator<CsrMatrix>;
/// The CYBER 203/205 kernel layout.
using DiaOperator = MatrixOperator<DiaMatrix>;
/// The SIMD-sliced layout; bitwise identical to CsrOperator.
using SellOperator = MatrixOperator<SellMatrix>;

}  // namespace mstep::la
