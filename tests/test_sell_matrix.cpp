// SELL-C-sigma, the third MatrixFormat: construction equivalence to CSR,
// bitwise SpMV across the whole problem catalog, the --format=auto
// occupancy-probe boundaries, and the config round-trip for format=sell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"
#include "la/simd.hpp"
#include "problems/problem.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace mstep::la {
namespace {

CsrMatrix small_test_matrix() {
  // [ 4 -1  0  0]
  // [-1  4 -2  0]
  // [ 0 -2  5 -1]
  // [ 0  0 -1  3]
  CooBuilder b(4, 4);
  b.add(0, 0, 4.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 4.0);
  b.add(1, 2, -2.0);
  b.add(2, 1, -2.0);
  b.add(2, 2, 5.0);
  b.add(2, 3, -1.0);
  b.add(3, 2, -1.0);
  b.add(3, 3, 3.0);
  return b.build();
}

bool bitwise_equal(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- construction -----------------------------------------------------------

TEST(SellMatrix, FromCsrPreservesEveryEntryInRowOrder) {
  const CsrMatrix a = small_test_matrix();
  const SellMatrix s = SellMatrix::from_csr(a);
  EXPECT_EQ(s.rows(), a.rows());
  EXPECT_EQ(s.cols(), a.cols());
  EXPECT_EQ(s.nnz(), a.nnz());
  EXPECT_EQ(s.num_nonzero_diagonals(), a.num_nonzero_diagonals());

  // The permutation is a bijection onto the real rows (padding slots -1).
  const simd::SellView v = s.slices().view();
  constexpr index_t kC = SellMatrix::kSliceHeight;
  std::set<index_t> seen;
  for (index_t slot = 0; slot < v.num_slices * kC; ++slot) {
    const index_t g = v.perm[slot];
    if (g < 0) continue;
    EXPECT_TRUE(seen.insert(g).second) << "row " << g << " stored twice";
  }
  EXPECT_EQ(static_cast<index_t>(seen.size()), a.rows());

  // Reconstruct each row from the slice-column-major storage and compare
  // with the CSR source entry for entry.
  for (index_t sl = 0; sl < v.num_slices; ++sl) {
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = sl * kC + r;
      const index_t g = v.perm[slot];
      if (g < 0) continue;
      const index_t len = v.len[slot];
      ASSERT_EQ(len, a.row_ptr()[g + 1] - a.row_ptr()[g]);
      for (index_t j = 0; j < len; ++j) {
        const std::size_t at =
            v.slice_ptr[sl] + static_cast<std::size_t>(j) * kC + r;
        EXPECT_EQ(v.col[at], a.col_idx()[a.row_ptr()[g] + j]);
        EXPECT_EQ(v.val[at], a.values()[a.row_ptr()[g] + j]);
      }
    }
  }
}

TEST(SellMatrix, SigmaWindowSortOrdersSliceMatesByLength) {
  // 8 rows with lengths 1..8 ascending; after the sigma sort the first
  // slice must hold the four longest rows.
  CooBuilder b(8, 8);
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j <= i; ++j) b.add(i, j, 1.0 + i + j);
  }
  const SellMatrix s = SellMatrix::from_csr(b.build());
  const simd::SellView v = s.slices().view();
  for (index_t r = 0; r < 4; ++r) {
    EXPECT_GE(v.len[r], 5) << "slice 0 lane " << r;
    EXPECT_LE(v.len[4 + r], 4) << "slice 1 lane " << r;
  }
}

TEST(SellMatrix, HandlesEmptyRowsAndRaggedTail) {
  // 5 rows (ragged last slice), row 2 completely empty.
  CooBuilder b(5, 5);
  b.add(0, 0, 2.0);
  b.add(1, 1, 3.0);
  b.add(1, 0, -1.0);
  b.add(3, 3, 4.0);
  b.add(4, 4, 5.0);
  b.add(4, 0, -2.0);
  const CsrMatrix a = b.build();
  const SellMatrix s = SellMatrix::from_csr(a);
  const Vec x = {1.0, 2.0, 3.0, 4.0, 5.0};
  Vec yc;
  Vec ys;
  a.multiply(x, yc);
  s.multiply(x, ys);
  EXPECT_TRUE(bitwise_equal(yc, ys));
  EXPECT_EQ(ys[2], 0.0);
}

// ---- the packing, pinned -----------------------------------------------------

/// The whole-row SELL-C-sigma packing as a standalone loop, kept here as
/// the reference SellMatrix::from_csr must reproduce array for array: slot
/// order by descending row length within each sigma window (ties by
/// ascending row id), slices as wide as their longest row, entries
/// scattered slice-column-major, padding (col 0, val 0).
struct ReferencePacking {
  std::vector<double> val;
  std::vector<index_t> col;
  std::vector<index_t> len;
  std::vector<index_t> perm;
  std::vector<std::size_t> slice_ptr;
};

ReferencePacking reference_packing(const CsrMatrix& a) {
  constexpr index_t kC = SellMatrix::kSliceHeight;
  constexpr index_t kSigma = SellMatrix::kDefaultSigma;
  const index_t n = a.rows();
  const auto& rp = a.row_ptr();
  std::vector<index_t> slots(n);
  for (index_t i = 0; i < n; ++i) slots[i] = i;
  for (index_t w = 0; w < n; w += kSigma) {
    std::sort(slots.begin() + w, slots.begin() + std::min(n, w + kSigma),
              [&](index_t i, index_t j) {
                const index_t li = rp[i + 1] - rp[i];
                const index_t lj = rp[j + 1] - rp[j];
                if (li != lj) return li > lj;
                return i < j;
              });
  }
  const index_t num_slices = (n + kC - 1) / kC;
  ReferencePacking m;
  m.perm.assign(static_cast<std::size_t>(num_slices) * kC, -1);
  m.len.assign(static_cast<std::size_t>(num_slices) * kC, 0);
  m.slice_ptr.assign(static_cast<std::size_t>(num_slices) + 1, 0);
  for (index_t s = 0; s < num_slices; ++s) {
    index_t width = 0;
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = s * kC + r;
      if (slot >= n) break;
      const index_t g = slots[slot];
      m.perm[slot] = g;
      m.len[slot] = rp[g + 1] - rp[g];
      width = std::max(width, m.len[slot]);
    }
    m.slice_ptr[s + 1] = m.slice_ptr[s] + static_cast<std::size_t>(width) * kC;
  }
  m.val.assign(m.slice_ptr.back(), 0.0);
  m.col.assign(m.slice_ptr.back(), 0);
  for (index_t s = 0; s < num_slices; ++s) {
    for (index_t r = 0; r < kC; ++r) {
      const index_t slot = s * kC + r;
      const index_t g = m.perm[slot];
      if (g < 0) continue;
      for (index_t j = 0; j < m.len[slot]; ++j) {
        const std::size_t at =
            m.slice_ptr[s] + static_cast<std::size_t>(j) * kC + r;
        m.val[at] = a.values()[rp[g] + j];
        m.col[at] = a.col_idx()[rp[g] + j];
      }
    }
  }
  return m;
}

/// n x n with rows of random length 0..max_len (so some rows are empty)
/// at random columns, every third entry an explicit zero.
CsrMatrix ragged_matrix(index_t n, index_t max_len, std::uint64_t seed) {
  util::Rng rng(seed);
  CooBuilder b(n, n);
  int k = 0;
  for (index_t i = 0; i < n; ++i) {
    const auto len = static_cast<index_t>(rng.uniform_index(max_len + 1));
    for (index_t t = 0; t < len; ++t) {
      const auto j = static_cast<index_t>(rng.uniform_index(n));
      b.add(i, j, ++k % 3 == 0 ? 0.0 : 1.0 + i + t);
    }
  }
  return b.build();
}

TEST(SellMatrix, PackingMatchesTheReferenceLoopArrayForArray) {
  std::vector<std::pair<std::string, CsrMatrix>> cases;
  for (const char* spec : {"poisson2d:n=10", "poisson3d:n=5", "convdiff:n=9",
                           "randspd:n=200:band=16", "stencil9:n=7",
                           "femplate:a=8", "cyberplate:a=8"}) {
    cases.emplace_back(spec,
                       problems::ProblemRegistry::instance().create(spec)
                           .matrix);
  }
  // n mod 4 != 0, n < sigma, several windows, empty rows, explicit zeros.
  for (const index_t n : {1, 3, 6, 37, 131, 258}) {
    cases.emplace_back("ragged n=" + std::to_string(n),
                       ragged_matrix(n, 9, static_cast<std::uint64_t>(n)));
  }
  cases.emplace_back("empty", CsrMatrix());
  bool some_empty_row = false;
  bool some_explicit_zero = false;
  for (const auto& [name, a] : cases) {
    const ReferencePacking want = reference_packing(a);
    const SellMatrix s = SellMatrix::from_csr(a);
    const simd::SellView v = s.slices().view();
    const auto slices = static_cast<std::size_t>(v.num_slices);
    const std::size_t slots = slices * SellMatrix::kSliceHeight;
    ASSERT_EQ(slices + 1, want.slice_ptr.size()) << name;
    ASSERT_EQ(s.stored_values(), want.val.size()) << name;
    EXPECT_TRUE(std::equal(want.perm.begin(), want.perm.end(), v.perm) &&
                want.perm.size() == slots)
        << name;
    EXPECT_TRUE(std::equal(want.len.begin(), want.len.end(), v.len)) << name;
    if (slices > 0) {
      EXPECT_TRUE(std::equal(want.slice_ptr.begin(), want.slice_ptr.end(),
                             v.slice_ptr))
          << name;
    }
    EXPECT_TRUE(std::equal(want.col.begin(), want.col.end(), v.col)) << name;
    EXPECT_EQ(std::memcmp(want.val.data(), v.val,
                          want.val.size() * sizeof(double)),
              0)
        << name;
    for (index_t i = 0; i < a.rows(); ++i) {
      some_empty_row |= a.row_ptr()[i] == a.row_ptr()[i + 1];
    }
    for (const double x : a.values()) some_explicit_zero |= x == 0.0;
  }
  EXPECT_TRUE(some_empty_row);
  EXPECT_TRUE(some_explicit_zero);
}

// ---- bitwise SpMV across the catalog ---------------------------------------

// Small instances of every catalog generator: SELL SpMV must be bitwise
// CSR SpMV on each, under both the scalar and the vector kernel path.
const char* const kCatalogSpecs[] = {
    "poisson2d:n=10",  "poisson3d:n=5",         "aniso2d:n=10",
    "convdiff:n=10",   "randspd:n=200:band=16", "stencil9:n=10",
    "femplate:a=8",    "cyberplate:a=8",
};

TEST(SellMatrix, SpmvBitwiseMatchesCsrAcrossCatalog) {
  for (const char* spec : kCatalogSpecs) {
    const auto p = problems::ProblemRegistry::instance().create(spec);
    const SellMatrix s = SellMatrix::from_csr(p.matrix);
    util::Rng rng(7);
    const Vec x = rng.uniform_vector(p.matrix.cols());
    for (const auto mode :
         {simd::SimdMode::kForceScalar, simd::SimdMode::kForceVector}) {
      const simd::SimdModeGuard guard(mode);
      Vec yc;
      Vec ys;
      p.matrix.multiply(x, yc);
      s.multiply(x, ys);
      EXPECT_TRUE(bitwise_equal(yc, ys))
          << spec << " isa=" << simd::simd_isa();
    }
  }
}

TEST(SellMatrix, MultiplySubBitwiseMatchesCsr) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  const SellMatrix s = SellMatrix::from_csr(p.matrix);
  util::Rng rng(11);
  const Vec x = rng.uniform_vector(p.matrix.cols());
  Vec yc = rng.uniform_vector(p.matrix.rows());
  Vec ys = yc;
  p.matrix.multiply_sub(x, yc);
  s.multiply_sub(x, ys);
  EXPECT_TRUE(bitwise_equal(yc, ys));
}

// ---- the --format=auto probe ------------------------------------------------

TEST(SellMatrix, ProbeAcceptsLocallyUniformRows) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  EXPECT_TRUE(SellMatrix::profitable(p.matrix));
  EXPECT_LE(SellMatrix::fill_estimate(p.matrix), SellMatrix::kDefaultMaxFill);
}

TEST(SellMatrix, ProbeRejectsEmptyMatrix) {
  EXPECT_FALSE(SellMatrix::profitable(CsrMatrix()));
  EXPECT_EQ(SellMatrix::fill_estimate(CsrMatrix()), 0.0);
}

/// SPD matrix engineered to defeat both probes: tridiagonal (so a few
/// dense rows blow the DIA diagonal count) with one dense row per sigma
/// window (so every window pads its short rows to the dense length and
/// the SELL fill explodes past 25%).
CsrMatrix skewed_spd_matrix(index_t n) {
  CooBuilder b(n, n);
  for (index_t i = 0; i < n; ++i) {
    b.add(i, i, 20.0);
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
  }
  for (index_t d = 0; d < n; d += SellMatrix::kDefaultSigma) {
    for (index_t j = 0; j < n; ++j) {
      if (j == d || (j + 1 == d || d + 1 == j)) continue;
      b.add(d, j, -0.01);
      b.add(j, d, -0.01);
    }
  }
  return b.build();
}

TEST(SellMatrix, ProbeRejectsSkewedRowLengths) {
  const CsrMatrix a = skewed_spd_matrix(256);
  EXPECT_FALSE(SellMatrix::profitable(a));
  EXPECT_GT(SellMatrix::fill_estimate(a), SellMatrix::kDefaultMaxFill);
}

TEST(FormatAuto, SkewedMatrixFallsBackToCsr) {
  const CsrMatrix a = skewed_spd_matrix(256);
  Vec f(a.rows(), 1.0);
  solver::SolverConfig cfg;
  cfg.splitting = "jacobi";
  cfg.steps = 2;
  cfg.params = "ones";
  cfg.format = solver::MatrixFormat::kAuto;
  const auto report = solver::Solver::from_config(cfg).solve(a, f);
  ASSERT_TRUE(report.converged());
  EXPECT_EQ(report.format_selected, solver::MatrixFormat::kCsr);
}

TEST(FormatAuto, PlateResolvesToSellAndMatchesCsrBitwise) {
  const auto p = problems::ProblemRegistry::instance().create("femplate:a=8");
  solver::SolverConfig cfg;
  cfg.tolerance = 1e-8;
  const auto csr = solver::Solver::from_config(cfg).solve(p.matrix, p.rhs,
                                                          p.classes);
  cfg.format = solver::MatrixFormat::kAuto;
  const auto auto_run = solver::Solver::from_config(cfg).solve(p.matrix,
                                                               p.rhs,
                                                               p.classes);
  ASSERT_TRUE(csr.converged());
  ASSERT_TRUE(auto_run.converged());
  // The multicolor-permuted plate has locally uniform row lengths but no
  // narrow band: the probe order (DIA, then SELL) must land on SELL —
  // and the format changes layout only, never bits.
  EXPECT_EQ(auto_run.format_selected, solver::MatrixFormat::kSell);
  EXPECT_EQ(auto_run.iterations(), csr.iterations());
  EXPECT_TRUE(bitwise_equal(auto_run.solution, csr.solution));
}

// ---- config round-trip ------------------------------------------------------

TEST(FormatConfig, SellRoundTripsThroughStringAndParser) {
  solver::SolverConfig cfg;
  cfg.format = solver::MatrixFormat::kSell;
  const auto back = solver::SolverConfig::from_string(cfg.to_string());
  EXPECT_EQ(back.format, solver::MatrixFormat::kSell);
  EXPECT_EQ(solver::matrix_format_from_string("sell"),
            solver::MatrixFormat::kSell);
  EXPECT_EQ(solver::to_string(solver::MatrixFormat::kSell), "sell");
}

TEST(FormatConfig, ErrorListsEveryValidFormatName) {
  try {
    (void)solver::matrix_format_from_string("ellpack");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"csr", "dia", "sell", "auto"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

}  // namespace
}  // namespace mstep::la
