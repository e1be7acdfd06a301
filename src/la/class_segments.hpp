// The storage the multicolor sweeps sum a colour class's couplings from:
// one segment type over the two layouts.
//
// Algorithm 2 needs, per colour class and half-sweep, the negated sums of
// each row's strictly-lower (forward) or strictly-upper (backward)
// couplings against the current z.  Rows of a class are independent
// (the class diagonal block is diagonal), so those sums vectorize ACROSS
// the class.  Two layouts do that:
//
//  * kSell — la::SellSegments, 4-row SELL slices with column indices,
//    summed by simd::sell_neg_slices: bitwise -row_dot per row, so the
//    sweep's bits match the CSR/SELL operator family;
//  * kDia  — la::DiaSegments, one value array per class-block diagonal,
//    summed by simd::dia_triad: no index traffic and no gathers, the
//    paper's CYBER layout (Section 3.1).  Its sums associate differently
//    from row_dot, so its bits differ from the SELL sweep's in the last
//    place, as the DIA operator's already differ from CSR's.
//
// Which layout a pipeline builds follows its resolved operator format: a
// DIA operator gets DIA segments, CSR and SELL operators SELL segments.
// Either way, every row's result depends only on the stored segment, so
// any partition of a class over threads or shards gives the same bits.
#pragma once

#include <cstddef>

#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/sell_matrix.hpp"

namespace mstep::la {

enum class SegmentLayout { kSell, kDia };

/// "sell" / "dia" — the name reports print.
[[nodiscard]] const char* to_string(SegmentLayout layout);

class ClassSegments {
 public:
  ClassSegments() = default;

  /// Rows [row_begin, row_end) of `a` in `layout`, row i contributing its
  /// CSR entries [seg_begin[i], seg_end[i]) (arrays indexed by global row
  /// id).  Only the requested layout is built.
  [[nodiscard]] static ClassSegments build(SegmentLayout layout,
                                           const CsrMatrix& a,
                                           const index_t* seg_begin,
                                           const index_t* seg_end,
                                           index_t row_begin,
                                           index_t row_end);

  [[nodiscard]] SegmentLayout layout() const { return layout_; }

  /// The units neg_sums partitions: SELL slices of 4 rows, or single
  /// rows in the DIA layout.
  [[nodiscard]] index_t num_parts() const {
    return layout_ == SegmentLayout::kDia ? dia_.rows() : sell_.num_slices();
  }

  /// out[i] = -(row i's segment . x) for every row i of parts
  /// [part_begin, part_end), each row written once; nothing else is
  /// touched.  `x` and `out` are indexed by global row.
  void neg_sums(const double* x, double* out, index_t part_begin,
                index_t part_end) const {
    if (layout_ == SegmentLayout::kDia) {
      dia_.neg_sums(x, out, part_begin, part_end);
    } else {
      simd::sell_neg_slices(sell_.view(), x, out, part_begin, part_end);
    }
  }

  /// Stored doubles, padding and holes included.
  [[nodiscard]] std::size_t stored_values() const {
    return layout_ == SegmentLayout::kDia ? dia_.stored_values()
                                          : sell_.stored_values();
  }

  /// The DIA storage (empty unless layout() == kDia).
  [[nodiscard]] const DiaSegments& dia() const { return dia_; }

 private:
  SegmentLayout layout_ = SegmentLayout::kSell;
  SellSegments sell_;
  DiaSegments dia_;
};

}  // namespace mstep::la
