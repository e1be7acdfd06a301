// Node-to-processor assignments (Figures 3 and 5 of the paper).
//
// The paper requires "that each processor receive an equal distribution of
// each color of the unconstrained nodes" and, for the Table 3 runs, equal
// border-node counts per processor.  Row bands, column strips and
// rectangular blocks cover the paper's examples; analyze() verifies the
// balance properties.
#pragma once

#include <vector>

#include "color/coloring.hpp"
#include "fem/plate_mesh.hpp"
#include "fem/tri_mesh.hpp"

namespace mstep::femsim {

/// Maps every unconstrained node to a processor.
struct Assignment {
  int nprocs = 1;
  std::vector<int> proc_of_node;  // by node id; -1 for constrained nodes

  [[nodiscard]] std::vector<std::vector<index_t>> nodes_of_proc() const;
};

/// Split the rows of unconstrained nodes into `p` contiguous horizontal
/// bands (Figure 5 left: the two-processor assignment).
[[nodiscard]] Assignment row_bands(const fem::PlateMesh& mesh, int p);

/// Split the unconstrained columns into `p` contiguous vertical strips
/// (Figure 5 right: the five-processor assignment).
[[nodiscard]] Assignment column_strips(const fem::PlateMesh& mesh, int p);

/// pr x pc grid of rectangular blocks (the Figure 3 layouts).
[[nodiscard]] Assignment rectangular_blocks(const fem::PlateMesh& mesh, int pr,
                                            int pc);

struct AssignmentStats {
  std::vector<std::array<int, 3>> color_counts;  // per proc: R/B/G nodes
  std::vector<int> border_nodes;  // per proc: nodes adjacent to other procs
  bool colors_balanced = false;   // equal R/B/G within every processor
  bool borders_equal = false;     // equal border count across processors
  int max_nodes = 0;
  int min_nodes = 0;
};

[[nodiscard]] AssignmentStats analyze(const Assignment& a,
                                      const fem::PlateMesh& mesh);

/// Processor pairs that must communicate (own nodes sharing a triangle).
[[nodiscard]] std::vector<std::pair<int, int>> neighbor_pairs(
    const Assignment& a, const fem::PlateMesh& mesh);

/// Irregular-region distribution (Section 5): partition an unstructured
/// mesh's unconstrained nodes into `p` equal-count buckets by
/// (x, y, node id) coordinate order — vertical strips on mesh-like node
/// distributions.  The node-id tie-break makes the order TOTAL, so the
/// ownership boundary between two coincident nodes (seams, stitched
/// meshes) is deterministic across standard libraries — the simulated
/// machine's ownership and message counts depend on this.
/// Returns the owning processor per node (-1 for constrained nodes).
[[nodiscard]] std::vector<int> coordinate_strip_owner(
    const fem::TriMesh& mesh, int p);

/// Ownership per COLOURED equation for the general DistributedPlateSolver
/// constructor: maps each coloured equation id to the processor owning its
/// node.
[[nodiscard]] std::vector<int> owner_of_colored_equations(
    const fem::TriMesh& mesh, const color::ColoredSystem& cs,
    const std::vector<int>& owner_of_node);

}  // namespace mstep::femsim
