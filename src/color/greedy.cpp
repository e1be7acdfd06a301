#include "color/greedy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mstep::color {

namespace {

/// First-fit colouring in vertex order: each vertex takes the smallest
/// colour that none of its already coloured neighbours holds.
/// `for_each_neighbour(v, mark)` calls mark(w) for every neighbour w of v.
/// last_seen[c] is the last vertex that found colour c among its
/// neighbours, so marking a colour is one store and nothing is cleared
/// between vertices.
template <class ForEachNeighbour>
std::vector<int> first_fit(std::size_t n, ForEachNeighbour&& for_each_neighbour) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<int> color(n, -1);
  std::vector<std::size_t> last_seen;  // one per colour in use
  for (std::size_t v = 0; v < n; ++v) {
    for_each_neighbour(v, [&](index_t w) {
      const int c = color[w];  // -1 for v itself and later vertices
      if (c >= 0) last_seen[c] = v;
    });
    std::size_t c = 0;
    while (c < last_seen.size() && last_seen[c] == v) ++c;
    if (c == last_seen.size()) last_seen.push_back(kNone);
    color[v] = static_cast<int>(c);
  }
  return color;
}

}  // namespace

std::vector<int> greedy_vertex_coloring(
    const std::vector<std::vector<index_t>>& adjacency) {
  return first_fit(adjacency.size(), [&](std::size_t v, auto&& mark) {
    for (const index_t w : adjacency[v]) mark(w);
  });
}

ColorClasses greedy_classes(const fem::TriMesh& mesh) {
  const std::vector<int> node_color =
      greedy_vertex_coloring(mesh.node_adjacency());
  int ncolors = 0;
  for (index_t node = 0; node < mesh.num_nodes(); ++node) {
    if (!mesh.is_constrained(node)) {
      ncolors = std::max(ncolors, node_color[node] + 1);
    }
  }
  ColorClasses cc;
  cc.classes.assign(static_cast<std::size_t>(2) * ncolors, {});
  for (int g = 0; g < ncolors; ++g) {
    for (int dof = 0; dof < 2; ++dof) {
      auto& cls = cc.classes[2 * g + dof];
      for (index_t node = 0; node < mesh.num_nodes(); ++node) {
        if (mesh.is_constrained(node) || node_color[node] != g) continue;
        cls.push_back(mesh.equation_id(node, dof));
      }
    }
  }
  // Drop empty classes (a colour may only appear on constrained nodes).
  cc.classes.erase(
      std::remove_if(cc.classes.begin(), cc.classes.end(),
                     [](const std::vector<index_t>& c) { return c.empty(); }),
      cc.classes.end());
  return cc;
}

ColorClasses greedy_classes_from_matrix(const la::CsrMatrix& k) {
  const auto& rp = k.row_ptr();
  const auto& col = k.col_idx();
  // The off-diagonal graph straight from the CSR arrays: the diagonal
  // entry names the vertex being coloured, which holds no colour yet.
  const std::vector<int> color =
      first_fit(static_cast<std::size_t>(k.rows()),
                [&](std::size_t i, auto&& mark) {
                  for (index_t t = rp[i]; t < rp[i + 1]; ++t) mark(col[t]);
                });
  std::vector<index_t> sizes;
  for (const int c : color) {
    if (c >= static_cast<int>(sizes.size())) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  ColorClasses cc;
  cc.classes.resize(sizes.size());
  for (std::size_t c = 0; c < sizes.size(); ++c) cc.classes[c].reserve(sizes[c]);
  for (index_t i = 0; i < k.rows(); ++i) cc.classes[color[i]].push_back(i);
  return cc;
}

int greedy_color_count(const fem::TriMesh& mesh) {
  const std::vector<int> node_color =
      greedy_vertex_coloring(mesh.node_adjacency());
  int ncolors = 0;
  for (int c : node_color) ncolors = std::max(ncolors, c + 1);
  return ncolors;
}

}  // namespace mstep::color
