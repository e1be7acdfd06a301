// Internal declarations of the AVX2 kernel variants (src/la/simd_avx2.cpp,
// compiled with -mavx2).  Only src/la/simd.cpp — the dispatcher — may call
// these, and only after checking simd_active(); the public surface is
// la/simd.hpp.  Every function here is the bitwise twin of the portable
// kernel of the same name.
#pragma once

#include <cstddef>

#include "la/simd.hpp"

#if defined(MSTEP_HAS_AVX2)

namespace mstep::la::simd::avx2 {

[[nodiscard]] double dot_block(const double* x, const double* y,
                               std::size_t n);
[[nodiscard]] double row_dot(const double* val, const index_t* col,
                             const double* x, index_t begin, index_t end);
[[nodiscard]] double step_update_max(double a, const double* p, double* u,
                                     std::size_t n);

void axpy(double a, const double* x, double* y, std::size_t n);
void xpay(const double* x, double b, double* y, std::size_t n);
void waxpby(double a, const double* x, double b, const double* y, double* w,
            std::size_t n);
void scale_copy(double a, const double* x, double* y, std::size_t n);
void hadamard(const double* x, const double* y, double* w, std::size_t n);
void vsub(const double* x, const double* y, double* w, std::size_t n);
void vadd(const double* x, const double* y, double* w, std::size_t n);

void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract);
void dia_triad(const double* v, const double* x, double* y, index_t lo,
               index_t hi, index_t off, bool subtract);
void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract);
void dia_sweep_rows(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end);
void sell_sweep_slices(const SellView& s, const double* x, const RowUpdate& u,
                       index_t slice_begin, index_t slice_end);

}  // namespace mstep::la::simd::avx2

#endif  // MSTEP_HAS_AVX2
