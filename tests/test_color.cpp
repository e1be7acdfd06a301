// Tests for the multicolor ordering machinery and the block structure of
// equation (3.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>

#include "color/coloring.hpp"
#include "color/greedy.hpp"
#include "fem/plane_stress.hpp"
#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace mstep::color {
namespace {

struct PlateSetup {
  fem::PlateMesh mesh;
  la::CsrMatrix k;
  ColorClasses classes;
  ColoredSystem cs;
};

PlateSetup make_plate(int rows, int cols) {
  fem::PlateMesh mesh(rows, cols);
  auto sys = fem::assemble_plane_stress(mesh, fem::Material{}, fem::EdgeLoad{});
  ColorClasses classes = six_color_classes(mesh);
  ColoredSystem cs = make_colored_system(sys.stiffness, classes);
  return {std::move(mesh), std::move(sys.stiffness), std::move(classes),
          std::move(cs)};
}

TEST(SixColor, ClassesPartitionAllEquations) {
  const auto s = make_plate(5, 5);
  EXPECT_EQ(s.classes.num_classes(), 6);
  EXPECT_EQ(s.classes.total_equations(), s.mesh.num_equations());
  std::vector<bool> seen(s.mesh.num_equations(), false);
  for (const auto& cls : s.classes.classes) {
    for (index_t eq : cls) {
      EXPECT_FALSE(seen[eq]);
      seen[eq] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(SixColor, ColoringIsValidForVariousPlates) {
  for (int rows : {3, 4, 6, 9}) {
    for (int cols : {3, 5, 8}) {
      const auto s = make_plate(rows, cols);
      EXPECT_TRUE(coloring_is_valid(s.k, s.classes))
          << rows << "x" << cols;
    }
  }
}

TEST(SixColor, ClassSizesAreBalancedOnWrapAroundPlates) {
  // When the number of nodes per row makes the colouring wrap R/B/G
  // seamlessly (ncols divisible by 3), class sizes are exactly equal.
  const auto s = make_plate(6, 7);  // 6 unconstrained columns per row
  const index_t expect = s.mesh.num_equations() / 6;
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(s.cs.class_size(k), expect) << "class " << k;
  }
}

TEST(Permutation, RoundTripsVectors) {
  const auto s = make_plate(4, 6);
  util::Rng rng(2);
  const Vec x = rng.uniform_vector(s.cs.size());
  const Vec y = s.cs.unpermute(s.cs.permute(x));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

TEST(Permutation, InverseIsConsistent) {
  const auto s = make_plate(3, 4);
  for (index_t i = 0; i < s.cs.size(); ++i) {
    EXPECT_EQ(s.cs.inv_perm[s.cs.perm[i]], i);
  }
}

TEST(Permutation, MatrixActionCommutesWithReordering) {
  // (P K P^T)(P x) must equal P (K x).
  const auto s = make_plate(5, 4);
  util::Rng rng(3);
  const Vec x = rng.uniform_vector(s.cs.size());
  Vec kx;
  s.k.multiply(x, kx);
  Vec kpx;
  s.cs.matrix.multiply(s.cs.permute(x), kpx);
  const Vec expected = s.cs.permute(kx);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(kpx[i], expected[i], 1e-12);
  }
}

TEST(BlockStructure, Equation31HoldsForPlate) {
  // D_kk diagonal for all six classes; B12, B34, B56 diagonal.
  for (int rows : {4, 6}) {
    for (int cols : {4, 7}) {
      const auto s = make_plate(rows, cols);
      const auto rep = verify_block_structure(s.cs);
      EXPECT_TRUE(rep.diagonal_blocks_are_diagonal) << rows << "x" << cols;
      EXPECT_TRUE(rep.paired_dof_blocks_are_diagonal) << rows << "x" << cols;
      EXPECT_EQ(rep.max_row_nnz, 14);
    }
  }
}

TEST(BlockStructure, PermutationPreservesSymmetry) {
  const auto s = make_plate(5, 5);
  EXPECT_LT(s.cs.matrix.symmetry_error(), 1e-12);
}

TEST(TwoColor, RedBlackDecouplesPoisson) {
  const fem::PoissonProblem p(7, 6);
  const auto a = p.matrix();
  const auto classes = two_color_classes(p);
  EXPECT_EQ(classes.num_classes(), 2);
  EXPECT_TRUE(coloring_is_valid(a, classes));
  const auto cs = make_colored_system(a, classes);
  const auto rep = verify_block_structure(cs);
  EXPECT_TRUE(rep.diagonal_blocks_are_diagonal);
}

TEST(Validity, DetectsBadColoring) {
  // Put two coupled equations in the same class: must be rejected.
  const fem::PoissonProblem p(3, 3);
  const auto a = p.matrix();
  ColorClasses bad;
  bad.classes.assign(2, {});
  for (index_t i = 0; i < a.rows(); ++i) {
    bad.classes[i < a.rows() / 2 ? 0 : 1].push_back(i);
  }
  EXPECT_FALSE(coloring_is_valid(a, bad));
}

TEST(Validity, RejectsIncompleteClasses) {
  const fem::PoissonProblem p(3, 3);
  const auto a = p.matrix();
  ColorClasses missing = two_color_classes(p);
  missing.classes[0].pop_back();
  EXPECT_FALSE(coloring_is_valid(a, missing));
}

// ---- setup rewrites against their earlier forms ----------------------------

/// The earlier greedy colouring: an adjacency list per vertex, and a
/// used-colour flag array cleared for every vertex.
ColorClasses reference_greedy_classes(const la::CsrMatrix& k) {
  const index_t n = k.rows();
  std::vector<std::vector<index_t>> adjacency(n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t t = k.row_ptr()[i]; t < k.row_ptr()[i + 1]; ++t) {
      if (k.col_idx()[t] != i) adjacency[i].push_back(k.col_idx()[t]);
    }
  }
  std::vector<int> color(n, -1);
  for (index_t v = 0; v < n; ++v) {
    int max_needed = 0;
    for (const index_t w : adjacency[v]) {
      if (color[w] >= 0) max_needed = std::max(max_needed, color[w] + 1);
    }
    std::vector<char> used(static_cast<std::size_t>(max_needed) + 1, 0);
    for (const index_t w : adjacency[v]) {
      if (color[w] >= 0) used[color[w]] = 1;
    }
    int c = 0;
    while (c < static_cast<int>(used.size()) && used[c]) ++c;
    color[v] = c;
  }
  int ncolors = 0;
  for (const int c : color) ncolors = std::max(ncolors, c + 1);
  ColorClasses cc;
  cc.classes.assign(ncolors, {});
  for (index_t i = 0; i < n; ++i) cc.classes[color[i]].push_back(i);
  return cc;
}

/// The earlier symmetric permutation: an index sort per row through
/// three fresh vectors.
la::CsrMatrix reference_permuted_symmetric(const la::CsrMatrix& a,
                                           const std::vector<index_t>& perm) {
  const index_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  std::vector<index_t> inv(n);
  for (index_t i = 0; i < n; ++i) inv[perm[i]] = i;
  std::vector<index_t> rp(n + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    rp[i + 1] = rp[i] + (row_ptr[perm[i] + 1] - row_ptr[perm[i]]);
  }
  std::vector<index_t> col(rp[n]);
  std::vector<double> val(rp[n]);
  for (index_t i = 0; i < n; ++i) {
    index_t out = rp[i];
    for (index_t k = row_ptr[perm[i]]; k < row_ptr[perm[i] + 1]; ++k, ++out) {
      col[out] = inv[a.col_idx()[k]];
      val[out] = a.values()[k];
    }
    std::vector<index_t> order(rp[i + 1] - rp[i]);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return col[rp[i] + x] < col[rp[i] + y];
    });
    std::vector<index_t> c2(order.size());
    std::vector<double> v2(order.size());
    for (std::size_t t = 0; t < order.size(); ++t) {
      c2[t] = col[rp[i] + order[t]];
      v2[t] = val[rp[i] + order[t]];
    }
    std::copy(c2.begin(), c2.end(), col.begin() + rp[i]);
    std::copy(v2.begin(), v2.end(), val.begin() + rp[i]);
  }
  return la::CsrMatrix(n, n, std::move(rp), std::move(col), std::move(val));
}

void expect_identical(const la::CsrMatrix& got, const la::CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  ASSERT_EQ(got.values().size(), want.values().size());
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        want.values().size() * sizeof(double)),
            0);
}

/// Greedy classes and the permuted matrix they induce are what the
/// earlier code produced.
void expect_setup_unchanged(const la::CsrMatrix& k) {
  const ColorClasses got = greedy_classes_from_matrix(k);
  const ColorClasses want = reference_greedy_classes(k);
  ASSERT_EQ(got.classes, want.classes);
  std::vector<index_t> perm;
  for (const auto& cls : got.classes) perm.insert(perm.end(), cls.begin(), cls.end());
  expect_identical(k.permuted_symmetric(perm),
                   reference_permuted_symmetric(k, perm));
}

TEST(SetupEquivalence, CatalogMatricesColourAndPermuteAsBefore) {
  for (const char* spec : {"randspd:n=6000:band=8:seed=7", "poisson2d",
                           "stencil9", "femplate:a=48"}) {
    SCOPED_TRACE(spec);
    // The plate's closed-form classes are ignored: its matrix is coloured
    // greedily like any other.
    expect_setup_unchanged(
        problems::ProblemRegistry::instance().create(spec).matrix);
  }
}

TEST(SetupEquivalence, RandomSymmetricPatternUnderRandomPermutation) {
  util::Rng rng(11);
  const index_t n = 700;
  la::CooBuilder builder(n, n);
  for (index_t i = 0; i < n; ++i) builder.add(i, i, 10.0 + rng.uniform());
  for (int e = 0; e < 4 * n; ++e) {
    const auto i = static_cast<index_t>(rng.uniform_index(n));
    const auto j = static_cast<index_t>(rng.uniform_index(n));
    if (i == j) continue;
    const double v = rng.uniform(-1.0, 1.0);
    builder.add(i, j, v);
    builder.add(j, i, v);
  }
  const la::CsrMatrix a = builder.build();
  std::vector<index_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (index_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
  }
  const la::CsrMatrix shuffled = a.permuted_symmetric(perm);
  expect_identical(shuffled, reference_permuted_symmetric(a, perm));
  expect_setup_unchanged(shuffled);
}

}  // namespace
}  // namespace mstep::color
