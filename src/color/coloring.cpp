#include "color/coloring.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace mstep::color {

index_t ColorClasses::total_equations() const {
  index_t n = 0;
  for (const auto& c : classes) n += static_cast<index_t>(c.size());
  return n;
}

ColorClasses six_color_classes(const fem::PlateMesh& mesh) {
  ColorClasses cc;
  cc.classes.assign(6, {});
  // Bottom-to-top (rows ascending), left-to-right within a row.
  for (int color = 0; color < 3; ++color) {
    for (int dof = 0; dof < 2; ++dof) {
      auto& cls = cc.classes[2 * color + dof];
      for (int r = 0; r < mesh.nrows(); ++r) {
        for (int c = 1; c < mesh.ncols(); ++c) {
          const index_t node = mesh.node_id(r, c);
          if (static_cast<int>(mesh.color(node)) != color) continue;
          cls.push_back(mesh.equation_id(node, dof));
        }
      }
    }
  }
  return cc;
}

ColorClasses two_color_classes(const fem::PoissonProblem& p) {
  ColorClasses cc;
  cc.classes.assign(2, {});
  for (int j = 0; j < p.ny(); ++j) {
    for (int i = 0; i < p.nx(); ++i) {
      cc.classes[p.color(i, j)].push_back(p.unknown_id(i, j));
    }
  }
  return cc;
}

std::vector<index_t> permutation_from_classes(const ColorClasses& classes) {
  std::vector<index_t> perm;
  perm.reserve(classes.total_equations());
  for (const auto& cls : classes.classes) {
    perm.insert(perm.end(), cls.begin(), cls.end());
  }
  return perm;
}

std::vector<index_t> inverse_permutation(const std::vector<index_t>& perm) {
  std::vector<index_t> inv(perm.size());
  for (index_t i = 0; i < static_cast<index_t>(perm.size()); ++i) {
    inv[perm[i]] = i;
  }
  return inv;
}

Vec ColoredSystem::permute(const Vec& x) const {
  assert(x.size() == perm.size());
  Vec y(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) y[i] = x[perm[i]];
  return y;
}

Vec ColoredSystem::unpermute(const Vec& x) const {
  assert(x.size() == perm.size());
  Vec y(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) y[perm[i]] = x[i];
  return y;
}

void ColoredSystem::permute_into(const Vec& x, Vec& out) const {
  assert(x.size() == perm.size());
  assert(&x != &out);
  out.resize(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[i] = x[perm[i]];
}

void ColoredSystem::unpermute_into(const Vec& x, Vec& out) const {
  assert(x.size() == perm.size());
  assert(&x != &out);
  out.resize(x.size());
  for (std::size_t i = 0; i < perm.size(); ++i) out[perm[i]] = x[i];
}

ColoredSystem make_colored_system(const la::CsrMatrix& k,
                                  const ColorClasses& classes) {
  if (classes.total_equations() != k.rows()) {
    throw std::invalid_argument(
        "make_colored_system: classes do not cover the matrix");
  }
  ColoredSystem cs;
  cs.perm = permutation_from_classes(classes);
  cs.inv_perm = inverse_permutation(cs.perm);
  cs.matrix = k.permuted_symmetric(cs.perm);
  cs.class_start.assign(1, 0);
  for (const auto& cls : classes.classes) {
    cs.class_start.push_back(cs.class_start.back() +
                             static_cast<index_t>(cls.size()));
  }
  return cs;
}

BlockStructureReport verify_block_structure(const ColoredSystem& cs) {
  BlockStructureReport rep;
  rep.diagonal_blocks_are_diagonal = true;
  rep.paired_dof_blocks_are_diagonal = true;
  rep.max_row_nnz = cs.matrix.max_row_nnz();
  rep.nnz = cs.matrix.nnz();

  const int nc = cs.num_classes();
  // nnz census per block.
  std::vector<std::vector<index_t>> block_nnz(nc,
                                              std::vector<index_t>(nc, 0));
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  const auto& val = cs.matrix.values();

  // Class lookup table (O(1) per query).
  std::vector<int> cls_of(cs.size());
  for (int k = 0; k < nc; ++k) {
    for (index_t i = cs.class_start[k]; i < cs.class_start[k + 1]; ++i) {
      cls_of[i] = k;
    }
  }

  for (index_t i = 0; i < cs.size(); ++i) {
    const int ci = cls_of[i];
    for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
      if (val[t] == 0.0) continue;
      const index_t j = col[t];
      const int cj = cls_of[j];
      block_nnz[ci][cj]++;
      const index_t bi = i - cs.class_start[ci];
      const index_t bj = j - cs.class_start[cj];
      if (ci == cj && bi != bj) rep.diagonal_blocks_are_diagonal = false;
      // Paired-dof blocks: classes (2c, 2c+1) — u and v of the same colour
      // couple only at the same node, i.e. at matching positions.
      if (ci / 2 == cj / 2 && ci != cj && bi != bj) {
        rep.paired_dof_blocks_are_diagonal = false;
      }
    }
  }

  std::ostringstream os;
  os << "block nnz census (" << nc << " classes):\n";
  for (int a = 0; a < nc; ++a) {
    for (int b = 0; b < nc; ++b) {
      os << block_nnz[a][b] << (b + 1 == nc ? '\n' : ' ');
    }
  }
  rep.detail = os.str();
  return rep;
}

bool coloring_is_valid(const la::CsrMatrix& k, const ColorClasses& classes) {
  std::vector<int> cls(k.rows(), -1);
  for (int c = 0; c < classes.num_classes(); ++c) {
    for (index_t eq : classes.classes[c]) {
      if (eq < 0 || eq >= k.rows() || cls[eq] != -1) return false;
      cls[eq] = c;
    }
  }
  const auto& rp = k.row_ptr();
  const auto& col = k.col_idx();
  const auto& val = k.values();
  for (index_t i = 0; i < k.rows(); ++i) {
    if (cls[i] < 0) return false;
    for (index_t t = rp[i]; t < rp[i + 1]; ++t) {
      if (val[t] == 0.0 || col[t] == i) continue;
      if (cls[col[t]] == cls[i]) return false;
    }
  }
  return true;
}

RowSplits compute_row_splits(const ColoredSystem& cs) {
  RowSplits rs;
  rs.diag = cs.matrix.diagonal();
  const index_t n = cs.size();
  rs.lo_end.resize(n);
  rs.up_begin.resize(n);
  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  const auto& val = cs.matrix.values();
  for (int c = 0; c < cs.num_classes(); ++c) {
    for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
      index_t t = rp[i];
      while (t < rp[i + 1] && col[t] < cs.class_start[c]) ++t;
      rs.lo_end[i] = t;
      while (t < rp[i + 1] && col[t] < cs.class_start[c + 1]) {
        if (col[t] != i && val[t] != 0.0) {
          throw std::invalid_argument(
              "compute_row_splits: diagonal class block is not diagonal");
        }
        ++t;
      }
      rs.up_begin[i] = t;
    }
  }
  return rs;
}

ClassDiagonalCensus compute_class_diagonal_census(const ColoredSystem& cs,
                                                  const RowSplits& splits) {
  const int nc = cs.num_classes();
  ClassDiagonalCensus census;
  census.lower.assign(nc, 0);
  census.upper.assign(nc, 0);

  const auto& rp = cs.matrix.row_ptr();
  const auto& col = cs.matrix.col_idx();
  const auto& val = cs.matrix.values();

  // seen[offset + n] holds the id of the last block that counted the
  // offset (2c: class c's lower block, 2c + 1: its upper block) — one
  // O(nnz) pass with no ordered set.
  const index_t n = cs.size();
  std::vector<int> seen(static_cast<std::size_t>(2 * n + 1), -1);
  const auto count = [&](index_t u, index_t i, int id, int& total) {
    if (val[u] == 0.0) return;
    int& mark = seen[static_cast<std::size_t>(col[u] - i + n)];
    if (mark != id) {
      mark = id;
      ++total;
    }
  };
  for (int c = 0; c < nc; ++c) {
    for (index_t i = cs.class_start[c]; i < cs.class_start[c + 1]; ++i) {
      for (index_t u = rp[i]; u < splits.lo_end[i]; ++u) {
        count(u, i, 2 * c, census.lower[c]);
      }
      for (index_t u = splits.up_begin[i]; u < rp[i + 1]; ++u) {
        count(u, i, 2 * c + 1, census.upper[c]);
      }
    }
  }
  return census;
}

}  // namespace mstep::color
