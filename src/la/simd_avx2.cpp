// Explicit AVX2 implementations of the SIMD kernel layer.
//
// This is the ONLY translation unit compiled with -mavx2 (CMake sets the
// flag per-file), so AVX2 instructions can never leak into code that runs
// before the runtime dispatch check.  Every kernel mirrors its portable
// twin in la/simd.cpp operation-for-operation: the fixed-lane reduction
// schedules map lanes onto vector-register lanes, every product uses
// _mm256_mul_pd followed by _mm256_add_pd (never _mm256_fmadd_pd — the
// portable twin has no fused rounding, so neither may this path), and the
// scalar tails are the twin's tails verbatim.  See la/simd.hpp for the
// bitwise contract.
#include "la/simd_internal.hpp"

#if defined(MSTEP_HAS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mstep::la::simd::avx2 {

namespace {

/// Clears the sign bit — |x| for the max-reduction, matching std::abs.
inline __m256d abs_pd(__m256d v) {
  const __m256d mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(v, mask);
}

/// x at four consecutive column indices, packed into one register.  Four
/// scalar loads + inserts beat the microcoded vgatherdpd on every current
/// x86 core for the short rows sparse systems have.
inline __m256d gather_pd(const double* x, const index_t* col) {
  return _mm256_set_pd(x[col[3]], x[col[2]], x[col[1]], x[col[0]]);
}

}  // namespace

double dot_block(const double* x, const double* y, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                                             _mm256_loadu_pd(y + i + 4)));
  }
  double lane[kDotLanes];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (; i < n; ++i) lane[i % kDotLanes] += x[i] * y[i];
  double s = lane[0];
  for (std::size_t l = 1; l < kDotLanes; ++l) s += lane[l];
  return s;
}

double row_dot(const double* val, const index_t* col, const double* x,
               index_t begin, index_t end) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  index_t t = begin;
  for (; t + static_cast<index_t>(kRowLanes) <= end;
       t += static_cast<index_t>(kRowLanes)) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(val + t), gather_pd(x, col + t)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(val + t + 4),
                                             gather_pd(x, col + t + 4)));
  }
  double lane[kRowLanes];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (; t < end; ++t) {
    lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
        val[t] * x[col[t]];
  }
  double s = lane[0];
  for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
  return s;
}

double step_update_max(double a, const double* p, double* u, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  __m256d mv = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d step = _mm256_mul_pd(av, _mm256_loadu_pd(p + i));
    _mm256_storeu_pd(u + i, _mm256_add_pd(_mm256_loadu_pd(u + i), step));
    mv = _mm256_max_pd(mv, abs_pd(step));
  }
  double lane[4];
  _mm256_storeu_pd(lane, mv);
  // max over non-negative values is order-insensitive: any order yields
  // the same value (and bit pattern) as the twin's sequential scan.
  double mx = std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  for (; i < n; ++i) {
    const double step = a * p[i];
    u[i] += step;
    mx = std::max(mx, std::abs(step));
  }
  return mx;
}

void axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(y + i),
                                   _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void xpay(const double* x, double b, double* y, std::size_t n) {
  const __m256d bv = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_loadu_pd(x + i),
                                   _mm256_mul_pd(bv, _mm256_loadu_pd(y + i))));
  }
  for (; i < n; ++i) y[i] = x[i] + b * y[i];
}

void scale_copy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] = a * x[i];
}

void hadamard(const double* x, const double* y, double* w, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        w + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) w[i] = x[i] * y[i];
}

namespace {

/// Two independent rows with their instruction streams interleaved: the
/// joint loop keeps eight FP add chains in flight and halves the per-row
/// branch cost.  Each row still executes row_dot's exact operation
/// sequence (joint iterations are that row's leading 8-wide iterations in
/// order; finish() completes the remainder), so the results are bitwise
/// row_dot's.
inline void row_dot_pair(const double* val, const index_t* col,
                         const double* x, index_t b0, index_t e0, index_t b1,
                         index_t e1, double* s0, double* s1) {
  __m256d a00 = _mm256_setzero_pd();
  __m256d a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd();
  __m256d a11 = _mm256_setzero_pd();
  index_t t0 = b0;
  index_t t1 = b1;
  constexpr auto kL = static_cast<index_t>(kRowLanes);
  while (t0 + kL <= e0 && t1 + kL <= e1) {
    a00 = _mm256_add_pd(
        a00, _mm256_mul_pd(_mm256_loadu_pd(val + t0), gather_pd(x, col + t0)));
    a10 = _mm256_add_pd(
        a10, _mm256_mul_pd(_mm256_loadu_pd(val + t1), gather_pd(x, col + t1)));
    a01 = _mm256_add_pd(a01, _mm256_mul_pd(_mm256_loadu_pd(val + t0 + 4),
                                           gather_pd(x, col + t0 + 4)));
    a11 = _mm256_add_pd(a11, _mm256_mul_pd(_mm256_loadu_pd(val + t1 + 4),
                                           gather_pd(x, col + t1 + 4)));
    t0 += kL;
    t1 += kL;
  }
  auto finish = [&](__m256d lo, __m256d hi, index_t t, index_t begin,
                    index_t end) {
    for (; t + kL <= end; t += kL) {
      lo = _mm256_add_pd(
          lo, _mm256_mul_pd(_mm256_loadu_pd(val + t), gather_pd(x, col + t)));
      hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(val + t + 4),
                                           gather_pd(x, col + t + 4)));
    }
    double lane[kRowLanes];
    _mm256_storeu_pd(lane, lo);
    _mm256_storeu_pd(lane + 4, hi);
    for (; t < end; ++t) {
      lane[static_cast<std::size_t>(t - begin) % kRowLanes] +=
          val[t] * x[col[t]];
    }
    double s = lane[0];
    for (std::size_t l = 1; l < kRowLanes; ++l) s += lane[l];
    return s;
  };
  *s0 = finish(a00, a01, t0, b0, e0);
  *s1 = finish(a10, a11, t1, b1, e1);
}

}  // namespace

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract) {
  index_t i = row_begin;
  for (; i + 2 <= row_end; i += 2) {
    double s0;
    double s1;
    row_dot_pair(val, col, x, rp[i], rp[i + 1], rp[i + 1], rp[i + 2], &s0,
                 &s1);
    if (subtract) {
      y[i] -= s0;
      y[i + 1] -= s1;
    } else {
      y[i] = s0;
      y[i + 1] = s1;
    }
  }
  for (; i < row_end; ++i) {
    if (subtract) {
      y[i] -= row_dot(val, col, x, rp[i], rp[i + 1]);
    } else {
      y[i] = row_dot(val, col, x, rp[i], rp[i + 1]);
    }
  }
}

namespace {

/// Per-row 8-lane sums of one SELL slice.  Eight rotating accumulators —
/// entry j of every lane-row goes to acc[j mod 8] — reproduce row_dot's
/// intra-row schedule in all four slice rows simultaneously.
inline void slice_sums(const SellView& s, index_t sl, const double* x,
                       double sum[kSellSlice]) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const std::size_t base = s.slice_ptr[sl];
  const auto width =
      static_cast<index_t>((s.slice_ptr[sl + 1] - base) / kSellSlice);
  // Row lengths of this slice's 4 lanes, widened for the j < len mask.
  const __m256i len64 = _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.len + sl * kC)));
  __m256d acc[kRowLanes] = {
      _mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
      _mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
      _mm256_setzero_pd(), _mm256_setzero_pd()};
  // Up to the shortest row of the slice every lane is live: no mask
  // needed, and the sigma sort makes this the bulk of the work.
  index_t shortest = s.len[sl * kC];
  for (index_t r = 1; r < kC; ++r) {
    shortest = std::min(shortest, s.len[sl * kC + r]);
  }
  index_t j = 0;
  for (; j < shortest; ++j) {
    const std::size_t at = base + static_cast<std::size_t>(j) * kSellSlice;
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(s.val + at), gather_pd(x, s.col + at));
    const std::size_t k = static_cast<std::size_t>(j) % kRowLanes;
    acc[k] = _mm256_add_pd(acc[k], prod);
  }
  for (; j < width; ++j) {
    const __m256d live = _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(len64, _mm256_set1_epi64x(j)));
    const std::size_t at = base + static_cast<std::size_t>(j) * kSellSlice;
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(s.val + at), gather_pd(x, s.col + at));
    const std::size_t k = static_cast<std::size_t>(j) % kRowLanes;
    // Blend keeps the old accumulator in padded lanes — adding the pad's
    // 0.0 product would turn a -0.0 partial into +0.0 and break the
    // bitwise contract.
    acc[k] = _mm256_blendv_pd(acc[k], _mm256_add_pd(acc[k], prod), live);
  }
  double lane[kRowLanes][kSellSlice];
  for (std::size_t k = 0; k < kRowLanes; ++k) {
    _mm256_storeu_pd(lane[k], acc[k]);
  }
  for (index_t r = 0; r < kC; ++r) {
    double v = lane[0][r];
    for (std::size_t k = 1; k < kRowLanes; ++k) v += lane[k][r];
    sum[r] = v;
  }
}

}  // namespace

namespace {

using Mode = RowUpdate::Mode;

/// RowUpdate's step for row g given s: its negated sum in the sweep modes
/// (ignored by kFinal), its new y value in kProduct and kResidual — the
/// portable twin's apply_row verbatim.
inline void apply_row(const RowUpdate& u, index_t g, double s) {
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

/// RowUpdate's step for rows g .. g+3, whose s values are in s.
template <Mode M>
inline void apply_rows4(const RowUpdate& u, __m256d alpha, index_t g,
                        __m256d s) {
  if constexpr (M == Mode::kSave || M == Mode::kProduct ||
                M == Mode::kResidual) {
    _mm256_storeu_pd(u.y + g, s);
  } else {
    const __m256d ar = _mm256_mul_pd(alpha, _mm256_loadu_pd(u.r + g));
    const __m256d y = _mm256_loadu_pd(u.y + g);
    const __m256d num = M == Mode::kFinal
                            ? _mm256_add_pd(y, ar)
                            : _mm256_add_pd(_mm256_add_pd(s, y), ar);
    _mm256_storeu_pd(u.z + g,
                     _mm256_div_pd(num, _mm256_loadu_pd(u.diag + g)));
    if constexpr (M == Mode::kSolve) _mm256_storeu_pd(u.y + g, s);
    if constexpr (M == Mode::kSolveLast) {
      _mm256_storeu_pd(u.y + g, _mm256_setzero_pd());
    }
  }
}

/// dia_sweep_rows for one mode.  Each 4-row block keeps its sums in one
/// register; three blocks are in flight at a time so their add/subtract
/// chains overlap.  A run's last rows that do not fill a block take the
/// twin's scalar path.
template <Mode M>
void dia_sweep_mode(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end) {
  const double* xr = x + v.row_begin;
  const __m256d alpha = _mm256_set1_pd(u.alpha);
  // Rows g .. g+3 start from y (kResidual) or +0.
  const auto start = [&](index_t g) {
    if constexpr (M == Mode::kResidual) return _mm256_loadu_pd(u.y + g);
    return _mm256_setzero_pd();
  };
  // s plus (kProduct) or minus value * x for local rows i .. i+3 on tap t.
  const auto step = [&](__m256d s, const DiaTap* t, index_t i) {
    const __m256d term =
        _mm256_mul_pd(_mm256_loadu_pd(v.val + (t->base + i)),
                      _mm256_loadu_pd(xr + i + t->offset));
    if constexpr (M == Mode::kProduct) return _mm256_add_pd(s, term);
    return _mm256_sub_pd(s, term);
  };
  index_t k = 0;
  while (k + 1 < v.runs && v.run_row[k + 1] <= local_begin) ++k;
  for (; k < v.runs && v.run_row[k] < local_end; ++k) {
    const DiaTap* t0 = v.taps + v.run_tap[k];
    const DiaTap* t1 = M == Mode::kFinal ? t0 : v.taps + v.run_tap[k + 1];
    const index_t end = std::min(v.run_row[k + 1], local_end);
    index_t i = std::max(v.run_row[k], local_begin);
    for (; i + 12 <= end; i += 12) {
      const index_t g = v.row_begin + i;
      __m256d s0 = start(g);
      __m256d s1 = start(g + 4);
      __m256d s2 = start(g + 8);
      for (const DiaTap* t = t0; t != t1; ++t) {
        s0 = step(s0, t, i);
        s1 = step(s1, t, i + 4);
        s2 = step(s2, t, i + 8);
      }
      apply_rows4<M>(u, alpha, g, s0);
      apply_rows4<M>(u, alpha, g + 4, s1);
      apply_rows4<M>(u, alpha, g + 8, s2);
    }
    for (; i + 4 <= end; i += 4) {
      const index_t g = v.row_begin + i;
      __m256d s = start(g);
      for (const DiaTap* t = t0; t != t1; ++t) s = step(s, t, i);
      apply_rows4<M>(u, alpha, g, s);
    }
    for (; i < end; ++i) {
      const index_t g = v.row_begin + i;
      double s = M == Mode::kResidual ? u.y[g] : 0.0;
      for (const DiaTap* t = t0; t != t1; ++t) {
        const double term = v.val[t->base + i] * xr[i + t->offset];
        s = M == Mode::kProduct ? s + term : s - term;
      }
      apply_row(u, g, s);
    }
  }
}

}  // namespace

void dia_sweep_rows(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end) {
  switch (u.mode) {
    case Mode::kSolve:
      return dia_sweep_mode<Mode::kSolve>(v, x, u, local_begin, local_end);
    case Mode::kSolveLast:
      return dia_sweep_mode<Mode::kSolveLast>(v, x, u, local_begin,
                                              local_end);
    case Mode::kSave:
      return dia_sweep_mode<Mode::kSave>(v, x, u, local_begin, local_end);
    case Mode::kFinal:
      return dia_sweep_mode<Mode::kFinal>(v, x, u, local_begin, local_end);
    case Mode::kProduct:
      return dia_sweep_mode<Mode::kProduct>(v, x, u, local_begin, local_end);
    case Mode::kResidual:
      return dia_sweep_mode<Mode::kResidual>(v, x, u, local_begin,
                                             local_end);
  }
}

namespace {

template <Mode M>
void sell_sweep_mode(const SellView& s, const double* x, const RowUpdate& u,
                     index_t slice_begin, index_t slice_end) {
  constexpr auto kC = static_cast<index_t>(kSellSlice);
  const __m256d alpha = _mm256_set1_pd(u.alpha);
  const __m256d sign = _mm256_set1_pd(-0.0);
  for (index_t sl = slice_begin; sl < slice_end; ++sl) {
    double sum[kSellSlice] = {};
    if constexpr (M != Mode::kFinal) slice_sums(s, sl, x, sum);
    const index_t* perm = s.perm + sl * kC;
    const index_t g = perm[0];
    // Slots holding four consecutive rows (the common case: the sigma
    // sort keeps row order among equal lengths) update as one block; the
    // sign flip is the exact negation the scalar path applies.
    if (g >= 0 && perm[1] == g + 1 && perm[2] == g + 2 && perm[3] == g + 3) {
      const __m256d v = _mm256_loadu_pd(sum);
      if constexpr (M == Mode::kProduct) {
        apply_rows4<M>(u, alpha, g, v);
      } else if constexpr (M == Mode::kResidual) {
        apply_rows4<M>(u, alpha, g,
                       _mm256_sub_pd(_mm256_loadu_pd(u.y + g), v));
      } else {
        apply_rows4<M>(u, alpha, g, _mm256_xor_pd(v, sign));
      }
      continue;
    }
    for (index_t r = 0; r < kC; ++r) {
      const index_t row = perm[r];
      if (row < 0) continue;
      apply_row(u, row,
                M == Mode::kProduct    ? sum[r]
                : M == Mode::kResidual ? u.y[row] - sum[r]
                                       : -sum[r]);
    }
  }
}

}  // namespace

void sell_sweep_slices(const SellView& s, const double* x, const RowUpdate& u,
                       index_t slice_begin, index_t slice_end) {
  switch (u.mode) {
    case Mode::kSolve:
      return sell_sweep_mode<Mode::kSolve>(s, x, u, slice_begin, slice_end);
    case Mode::kSolveLast:
      return sell_sweep_mode<Mode::kSolveLast>(s, x, u, slice_begin,
                                               slice_end);
    case Mode::kSave:
      return sell_sweep_mode<Mode::kSave>(s, x, u, slice_begin, slice_end);
    case Mode::kFinal:
      return sell_sweep_mode<Mode::kFinal>(s, x, u, slice_begin, slice_end);
    case Mode::kProduct:
      return sell_sweep_mode<Mode::kProduct>(s, x, u, slice_begin, slice_end);
    case Mode::kResidual:
      return sell_sweep_mode<Mode::kResidual>(s, x, u, slice_begin,
                                              slice_end);
  }
}

}  // namespace mstep::la::simd::avx2

#endif  // MSTEP_HAS_AVX2
