// Portable twins + runtime dispatch for the SIMD kernel layer.
//
// The scalar implementations here are NOT naive loops: reductions follow
// the same fixed-lane schedule as the AVX2 path (see la/simd.hpp), so both
// paths perform the identical sequence of IEEE-754 mul/add operations and
// produce bitwise-identical results.  Dispatch is a relaxed atomic load
// plus a branch per kernel call; the decision may therefore change at any
// time (tests flip it per-case) without affecting any result.
#include "la/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "la/simd_internal.hpp"

namespace mstep::la::simd {

namespace {

SimdMode mode_from_env() {
  const char* e = std::getenv("MSTEP_SIMD");
  if (e == nullptr) return SimdMode::kAuto;
  if (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0 ||
      std::strcmp(e, "scalar") == 0) {
    return SimdMode::kForceScalar;
  }
  if (std::strcmp(e, "on") == 0 || std::strcmp(e, "1") == 0 ||
      std::strcmp(e, "avx2") == 0) {
    return SimdMode::kForceVector;
  }
  return SimdMode::kAuto;
}

std::atomic<SimdMode>& mode_cell() {
  static std::atomic<SimdMode> cell{mode_from_env()};
  return cell;
}

}  // namespace

void set_simd_mode(SimdMode mode) {
  mode_cell().store(mode, std::memory_order_relaxed);
}

SimdMode simd_mode() { return mode_cell().load(std::memory_order_relaxed); }

bool simd_compiled() {
#if defined(MSTEP_HAS_AVX2)
  return true;
#else
  return false;
#endif
}

bool simd_available() {
#if defined(MSTEP_HAS_AVX2)
  static const bool cpu_ok = __builtin_cpu_supports("avx2") != 0;
  return cpu_ok;
#else
  return false;
#endif
}

bool simd_active() {
  const SimdMode m = simd_mode();
  if (m == SimdMode::kForceScalar) return false;
  // kForceVector still requires the path to exist: with no AVX2 the
  // portable twin runs — same bits, so forcing is safe everywhere.
  return simd_available();
}

const char* simd_isa() { return simd_active() ? "avx2" : "scalar"; }

// ---- portable twins ---------------------------------------------------------

namespace portable {

double dot_block(const double* x, const double* y, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    l0 += x[i] * y[i];
    l1 += x[i + 1] * y[i + 1];
    l2 += x[i + 2] * y[i + 2];
    l3 += x[i + 3] * y[i + 3];
    l4 += x[i + 4] * y[i + 4];
    l5 += x[i + 5] * y[i + 5];
    l6 += x[i + 6] * y[i + 6];
    l7 += x[i + 7] * y[i + 7];
  }
  double lane[kDotLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; i < n; ++i) lane[i % kDotLanes] += x[i] * y[i];
  double s = lane[0];
  for (std::size_t l = 1; l < kDotLanes; ++l) s += lane[l];
  return s;
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  double l4 = 0.0, l5 = 0.0, l6 = 0.0, l7 = 0.0;
  index_t t = begin;
  for (; t + static_cast<index_t>(kRowLanes) <= end;
       t += static_cast<index_t>(kRowLanes)) {
    l0 += val[t] * x[col[t]];
    l1 += val[t + 1] * x[col[t + 1]];
    l2 += val[t + 2] * x[col[t + 2]];
    l3 += val[t + 3] * x[col[t + 3]];
    l4 += val[t + 4] * x[col[t + 4]];
    l5 += val[t + 5] * x[col[t + 5]];
    l6 += val[t + 6] * x[col[t + 6]];
    l7 += val[t + 7] * x[col[t + 7]];
  }
  double lane[kRowLanes] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (; t < end; ++t) {
    lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
        val[t] * x[col[t]];
  }
  double s = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
  return s;
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  double mx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double step = a * p[i];
    u[i] += step;
    mx = std::max(mx, std::abs(step));
  }
  return mx;
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] + b * y[i];
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = a * x[i];
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w[i] = x[i] * y[i];
}

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  if (subtract) {
    for (index_t i = row_begin; i < row_end; ++i) {
      y[i] -= row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  } else {
    for (index_t i = row_begin; i < row_end; ++i) {
      y[i] = row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  }
}

namespace {

using Mode = RowUpdate::Mode;

/// RowUpdate's step for row g given s: its negated sum in the sweep modes
/// (ignored by kFinal), its new y value in kProduct and kResidual.
void apply_row(const RowUpdate& u, index_t g, double s) {
  switch (u.mode) {
    case Mode::kSolve:
    case Mode::kSolveLast:
      u.z[g] = (s + u.y[g] + u.alpha * u.r[g]) / u.diag[g];
      u.y[g] = u.mode == Mode::kSolve ? s : 0.0;
      return;
    case Mode::kSave:
    case Mode::kProduct:
    case Mode::kResidual:
      u.y[g] = s;
      return;
    case Mode::kFinal:
      u.z[g] = (u.y[g] + u.alpha * u.r[g]) / u.diag[g];
      return;
  }
}

/// Local rows [i, end) of one run over taps [t0, t1), four rows at a time
/// so their add/subtract chains overlap, as the AVX2 path's lanes do.
/// Each row keeps its own sum and its own operations in their own order,
/// so the bits are the one-row loop's.
template <bool kAdd>
void dia_run_rows(const DiaRunView& v, const double* xr, const RowUpdate& u,
                  const DiaTap* t0, const DiaTap* t1, index_t i,
                  index_t end) {
  const bool residual = u.mode == Mode::kResidual;
  const auto start = [&](index_t g) { return residual ? u.y[g] : 0.0; };
  for (; i + 4 <= end; i += 4) {
    const index_t g = v.row_begin + i;
    double s0 = start(g);
    double s1 = start(g + 1);
    double s2 = start(g + 2);
    double s3 = start(g + 3);
    for (const DiaTap* t = t0; t != t1; ++t) {
      const double* a = v.val + (t->base + i);
      const double* b = xr + (i + t->offset);
      if constexpr (kAdd) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
      } else {
        s0 -= a[0] * b[0];
        s1 -= a[1] * b[1];
        s2 -= a[2] * b[2];
        s3 -= a[3] * b[3];
      }
    }
    apply_row(u, g, s0);
    apply_row(u, g + 1, s1);
    apply_row(u, g + 2, s2);
    apply_row(u, g + 3, s3);
  }
  for (; i < end; ++i) {
    const index_t g = v.row_begin + i;
    double s = start(g);
    for (const DiaTap* t = t0; t != t1; ++t) {
      const double term = v.val[t->base + i] * xr[i + t->offset];
      s = kAdd ? s + term : s - term;
    }
    apply_row(u, g, s);
  }
}

}  // namespace

void dia_sweep_rows(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end) {
  const double* xr = x + v.row_begin;
  const bool add = u.mode == Mode::kProduct;
  index_t k = 0;
  while (k + 1 < v.runs && v.run_row[k + 1] <= local_begin) ++k;
  for (; k < v.runs && v.run_row[k] < local_end; ++k) {
    const DiaTap* t0 = v.taps + v.run_tap[k];
    const DiaTap* t1 = u.mode == Mode::kFinal ? t0 : v.taps + v.run_tap[k + 1];
    const index_t begin = std::max(v.run_row[k], local_begin);
    const index_t end = std::min(v.run_row[k + 1], local_end);
    if (add) {
      dia_run_rows<true>(v, xr, u, t0, t1, begin, end);
    } else {
      dia_run_rows<false>(v, xr, u, t0, t1, begin, end);
    }
  }
}

void sell_sweep_slices(const SellView& s, const double* x, const RowUpdate& u,
                       index_t slice_begin, index_t slice_end) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const bool sums = u.mode != Mode::kFinal;
  for (index_t sl = slice_begin; sl < slice_end; ++sl) {
    const std::size_t base = s.slice_ptr[sl];
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = sl * kC + r;
      const index_t g = s.perm[slot];
      if (g < 0) continue;
      const index_t length = sums ? s.len[slot] : 0;
      double lane[kRowLanes] = {};
      for (index_t j = 0; j < length; ++j) {
        const std::size_t at = base + static_cast<std::size_t>(j) * kC + r;
        lane[static_cast<std::size_t>(j) % kRowLanes] +=
            s.val[at] * x[s.col[at]];
      }
      double sum = lane[0];
      for (std::size_t l = 1; l < kRowLanes; ++l) sum += lane[l];
      apply_row(u, g,
                u.mode == Mode::kProduct    ? sum
                : u.mode == Mode::kResidual ? u.y[g] - sum
                                            : -sum);
    }
  }
}

}  // namespace portable

// ---- dispatch ---------------------------------------------------------------

#if defined(MSTEP_HAS_AVX2)
#define MSTEP_SIMD_DISPATCH(call) \
  if (simd_active()) return avx2::call; \
  return portable::call
#else
#define MSTEP_SIMD_DISPATCH(call) return portable::call
#endif

double dot_block(const double* x, const double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(dot_block(x, y, n));
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  MSTEP_SIMD_DISPATCH(row_dot(val, col, x, begin, end));
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  MSTEP_SIMD_DISPATCH(step_update_max(a, p, u, n));
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(axpy(a, x, y, n));
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(xpay(x, b, y, n));
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  MSTEP_SIMD_DISPATCH(scale_copy(a, x, y, n));
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  MSTEP_SIMD_DISPATCH(hadamard(x, y, w, n));
}

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  MSTEP_SIMD_DISPATCH(
      csr_spmv_rows(rp, col, val, x, y, row_begin, row_end, subtract));
}

void dia_sweep_rows(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end) {
  MSTEP_SIMD_DISPATCH(dia_sweep_rows(v, x, u, local_begin, local_end));
}

void sell_sweep_slices(const SellView& s, const double* x, const RowUpdate& u,
                       index_t slice_begin, index_t slice_end) {
  MSTEP_SIMD_DISPATCH(sell_sweep_slices(s, x, u, slice_begin, slice_end));
}

#undef MSTEP_SIMD_DISPATCH

}  // namespace mstep::la::simd
