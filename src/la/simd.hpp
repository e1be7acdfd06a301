// The one SIMD kernel layer behind every hot loop in the library.
//
// Every kernel here has two implementations — a portable scalar twin and an
// explicit AVX2 path (src/la/simd_avx2.cpp, compiled with -mavx2 and
// runtime-dispatched) — that execute the SAME sequence of IEEE-754
// operations, so the results are BITWISE identical whichever path runs.
// That is what lets the dispatch decision (CPU support, the MSTEP_SIMD env
// var, the test force API) be taken anywhere without touching the
// determinism contract: serial == threaded == SIMD-on == SIMD-off.
//
// The trick is a FIXED-LANE summation schedule.  A reduction over n terms
// is split into L interleaved lane sums (term i goes to lane i mod L, each
// lane accumulated left-to-right) combined in fixed order l0 + l1 + ... —
// the natural shape of a vector accumulator register, and one a scalar
// loop reproduces exactly with L independent accumulators:
//
//   * dot blocks use L = 8 (two 4-wide AVX2 accumulators; breaks the FP
//     add dependency chain 8x, which is the entire scalar bottleneck);
//   * sparse row sums (CSR SpMV, the multicolor sweep's lower/upper sums,
//     SELL-C-sigma lanes) also use L = 8 (two accumulators + x gathers —
//     one accumulator would serialize the row on the FP add latency).
//
// la::kReductionBlock (1024) is a multiple of both, so the threaded
// fixed-block reduction keeps lane phase across block boundaries.
// Elementwise kernels (axpy, DIA triads, ...) need no schedule: each
// element's mul+add order is the serial one.  No kernel may use FMA — the
// portable twin compiles to separate mul and add on every target (the
// build forces -ffp-contract=off), so the AVX2 path uses _mm256_mul_pd +
// _mm256_add_pd, never _mm256_fmadd_pd.
#pragma once

#include <cstddef>

#include "la/vector.hpp"

namespace mstep::la::simd {

/// Lane counts of the fixed summation schedules (see file comment).
inline constexpr std::size_t kDotLanes = 8;
inline constexpr std::size_t kRowLanes = 8;
/// Rows per SELL-C-sigma slice — one AVX2 double register.  Distinct from
/// kRowLanes: the slice height is the number of rows processed together,
/// the lane count is the summation schedule WITHIN each row.
inline constexpr std::size_t kSellSlice = 4;

/// Dispatch control.  kAuto follows the MSTEP_SIMD environment variable
/// ("off"/"0"/"scalar" forces the portable twin, "on"/"1"/"avx2" and unset
/// use the vector path when the CPU has it); the force modes override the
/// environment from code (tests, the bench harness).
enum class SimdMode { kAuto, kForceScalar, kForceVector };

void set_simd_mode(SimdMode mode);
[[nodiscard]] SimdMode simd_mode();
/// True when the AVX2 path was compiled in (x86-64 and the compiler took
/// -mavx2).
[[nodiscard]] bool simd_compiled();
/// True when the AVX2 path is compiled in AND this CPU executes it.
[[nodiscard]] bool simd_available();
/// The resolved decision for the next kernel call.
[[nodiscard]] bool simd_active();
/// "avx2" when simd_active(), else "scalar" — for reports and bench rows.
[[nodiscard]] const char* simd_isa();

/// RAII force-scalar/force-vector scope for tests and benches.
class SimdModeGuard {
 public:
  explicit SimdModeGuard(SimdMode mode) : saved_(simd_mode()) {
    set_simd_mode(mode);
  }
  ~SimdModeGuard() { set_simd_mode(saved_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode saved_;
};

// ---- reductions (fixed-lane schedule) ---------------------------------------

/// 8-lane dot product over [0, n) — the per-block kernel of the
/// deterministic blocked reduction (la::dot / par::Execution::dot).
[[nodiscard]] double dot_block(const double* x, const double* y,
                               std::size_t n);

/// 8-lane sparse row sum: sum_k val[k] * x[col[k]] over k in [begin, end).
/// Shared by CSR SpMV and the multicolor sweeps; SELL lanes reproduce the
/// same per-row schedule, which is what makes the formats bitwise-equal.
[[nodiscard]] double row_dot(const double* val, const index_t* col,
                             const double* x, index_t begin, index_t end);

/// Fused CG update u[i] += a * p[i] over [0, n), returning max |a * p[i]|.
/// The max reduction is order-insensitive over non-negative values, so no
/// schedule is needed.
[[nodiscard]] double step_update_max(double a, const double* p, double* u,
                                     std::size_t n);

// ---- elementwise BLAS-1 (serial accumulation order per element) -------------

void axpy(double a, const double* x, double* y, std::size_t n);
void xpay(const double* x, double b, double* y, std::size_t n);
void waxpby(double a, const double* x, double b, const double* y, double* w,
            std::size_t n);
/// y[i] = a * x[i]; x == y aliasing allowed (in-place scale).
void scale_copy(double a, const double* x, double* y, std::size_t n);
void hadamard(const double* x, const double* y, double* w, std::size_t n);
void vsub(const double* x, const double* y, double* w, std::size_t n);
void vadd(const double* x, const double* y, double* w, std::size_t n);

// ---- sparse kernels ---------------------------------------------------------

/// CSR rows [row_begin, row_end): y[i] = (or -=) the 8-lane row sum.
void csr_spmv_rows(const index_t* rp, const index_t* col, const double* val,
                   const double* x, double* y, index_t row_begin,
                   index_t row_end, bool subtract);

/// One DIA triad over [lo, hi): y[i] += (or -=) v[i] * x[i + off].
void dia_triad(const double* v, const double* x, double* y, index_t lo,
               index_t hi, index_t off, bool subtract);

/// Non-owning view of SELL-C-sigma storage (see la/sell_matrix.hpp).
/// C = kSellSlice rows per slice; values/columns slice-column-major:
/// entry j of the row in slot (slice s, lane r) is val[slice_ptr[s] + j*C
/// + r].  len[s*C + r] is that row's entry count, perm[s*C + r] its global
/// row index (-1 marks a slot with no row: past the last row, or a padding
/// slot of a segment view).
struct SellView {
  const double* val = nullptr;
  const index_t* col = nullptr;
  const index_t* len = nullptr;
  const index_t* perm = nullptr;
  const std::size_t* slice_ptr = nullptr;
  index_t num_slices = 0;
};

/// SELL slices [slice_begin, slice_end): for each real slot, y[perm[slot]]
/// = (or -=) the slot row's 8-lane sum.  Lane l of row r accumulates its
/// entries j with j mod 8 == l in increasing j — the exact schedule of
/// row_dot — so SELL SpMV is bitwise CSR SpMV.
void sell_spmv_slices(const SellView& s, const double* x, double* y,
                      index_t slice_begin, index_t slice_end, bool subtract);

// ---- the fused multicolor sweep pass ----------------------------------------

/// Algorithm 2's per-row step, applied to row g's negated coupling sum
/// s = -(segment . x) the moment the sum is formed — the sum itself never
/// goes to memory.  Both paths evaluate each expression in exactly this
/// order, with no FMA, so the sweep's bits do not depend on the path:
///
///   kSolve      z[g] = (s + y[g] + alpha * r[g]) / diag[g];  y[g] = s
///   kSolveLast  the same, then y[g] = 0 (the last class has no upper sums)
///   kSave       y[g] = s  (class 0's upper sums; its solve is deferred)
///   kFinal      z[g] = (y[g] + alpha * r[g]) / diag[g]  — no sum is formed
///
/// kSave reads none of alpha, r, diag or z.
struct RowUpdate {
  enum class Mode { kSolve, kSolveLast, kSave, kFinal };
  Mode mode = Mode::kSave;
  double alpha = 0.0;
  const double* r = nullptr;
  const double* diag = nullptr;
  double* y = nullptr;
  double* z = nullptr;
};

/// One live diagonal of a DIA run: local row i reads the value
/// val[base + i] and x[row_begin + i + offset].
struct DiaTap {
  std::ptrdiff_t base = 0;
  index_t offset = 0;
};

/// Non-owning view of a colour class's diagonals cut into RUNS (see
/// la::DiaSegments): run k covers local rows [run_row[k], run_row[k+1])
/// and sums taps [run_tap[k], run_tap[k+1]), in ascending offset order,
/// over every row of it — no per-diagonal clamp.
struct DiaRunView {
  const double* val = nullptr;
  const DiaTap* taps = nullptr;
  const index_t* run_row = nullptr;  // runs + 1 entries
  const index_t* run_tap = nullptr;  // runs + 1 entries
  index_t runs = 0;
  index_t row_begin = 0;  // global row of local row 0
};

/// The fused sweep pass over local rows [local_begin, local_end) of a DIA
/// class: per row s = 0, then s -= val * x[row + offset] for each tap of
/// its run in order, then `u`.  The AVX2 path keeps s for 4 rows in one
/// register; it executes each row's operations in the same order as the
/// scalar twin, with mul then sub (never FMA) and a correctly rounded
/// divide, so the bits match.  `x` may alias u.z: a class reads only
/// other classes' rows.
void dia_sweep_rows(const DiaRunView& v, const double* x, const RowUpdate& u,
                    index_t local_begin, index_t local_end);

/// The same fused pass over SELL slices [slice_begin, slice_end): for each
/// real slot, s = -(the slot row's 8-lane sum) — bitwise `-row_dot(...)`
/// over the stored segment, since negating the finished sum commutes with
/// round-to-nearest — then `u` for row perm[slot].  Under CSR and SELL
/// operators the sweeps store each class's strictly-lower / strictly-upper
/// row segments as SELL slices (la::SellSegments), vectorizing the sums
/// ACROSS the rows of a class — legal exactly because the multicolor
/// ordering makes those rows independent.
void sell_sweep_slices(const SellView& s, const double* x, const RowUpdate& u,
                       index_t slice_begin, index_t slice_end);

}  // namespace mstep::la::simd
