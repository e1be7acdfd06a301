// The storage the multicolor sweeps sum a colour class's couplings from:
// one segment type over the two layouts.
//
// Algorithm 2 needs, per colour class and half-sweep, the negated sums of
// each row's strictly-lower (forward) or strictly-upper (backward)
// couplings against the current z, each fed at once into that row's
// update.  Rows of a class are independent (the class diagonal block is
// diagonal), so those sums vectorize ACROSS the class, and one fused pass
// (sweep) forms every sum in registers and applies the update — no
// scratch vector holds the sums.  Two layouts do that:
//
//  * kSell — la::SellSegments, 4-row SELL slices with column indices,
//    run by simd::sell_sweep_slices: bitwise -row_dot per row, so the
//    sweep's bits match the CSR/SELL operator family;
//  * kDia  — la::DiaSegments, one value array per class-block diagonal
//    and the class's runs (row intervals with one set of live
//    diagonals), run by simd::dia_sweep_rows: no index traffic, no
//    gathers and no per-diagonal clamp, the paper's CYBER layout
//    (Section 3.1).  Its sums associate differently from row_dot, so its
//    bits differ from the SELL sweep's in the last place, as the DIA
//    operator's already differ from CSR's.
//
// Which layout a pipeline builds follows its resolved operator format: a
// DIA operator gets DIA segments, CSR and SELL operators SELL segments.
// Either way, every row's result depends only on the stored segment, so
// any partition of a class over threads gives the same bits.
//
// The threaded sweep splits a class into strips of whole WINDOWS — one
// row in the DIA layout, one sigma sorting window of slices in the SELL
// layout — so a strip's parts write exactly one contiguous row range.  A
// DIA strip just intersects the runs: it may cut one anywhere.
#pragma once

#include <algorithm>
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
  [[nodiscard]] index_t row_begin() const { return row_begin_; }
  [[nodiscard]] index_t row_end() const { return row_end_; }

  /// The units sweep partitions: SELL slices of 4 rows, or single
  /// rows in the DIA layout.
  [[nodiscard]] index_t num_parts() const {
    return layout_ == SegmentLayout::kDia ? dia_.rows() : sell_.num_slices();
  }

  /// Parts [part_begin, part_end) and the rows [row_begin, row_end) they
  /// write.
  struct Strip {
    index_t part_begin = 0;
    index_t part_end = 0;
    index_t row_begin = 0;
    index_t row_end = 0;
  };

  /// Strip k of `strips`: the windows w with w * strips / windows == k
  /// (the equal-strip rule), i.e. whole windows from ceil(k * W / strips)
  /// up to ceil((k + 1) * W / strips).  The strips of one class partition
  /// its parts and rows in order; a strip may be empty when there are
  /// more strips than windows.
  [[nodiscard]] Strip strip(index_t k, index_t strips) const {
    const bool dia = layout_ == SegmentLayout::kDia;
    const index_t rows = row_end_ - row_begin_;
    const index_t window_rows = dia ? 1 : sell_.sigma();
    const index_t window_parts =
        dia ? 1 : sell_.sigma() / SellMatrix::kSliceHeight;
    const index_t windows = (rows + window_rows - 1) / window_rows;
    const index_t w0 = (k * windows + strips - 1) / strips;
    const index_t w1 = ((k + 1) * windows + strips - 1) / strips;
    const index_t parts = num_parts();
    return {std::min(parts, w0 * window_parts),
            std::min(parts, w1 * window_parts),
            row_begin_ + std::min(rows, w0 * window_rows),
            row_begin_ + std::min(rows, w1 * window_rows)};
  }

  /// One fused Algorithm-2 pass over parts [part_begin, part_end): each
  /// row's negated coupling sum s = -(segment . x) is formed in registers
  /// and handed straight to `u` (see simd::RowUpdate).  Only the parts'
  /// rows are written.  `x` is indexed by global row and may alias u.z.
  void sweep(const double* x, const simd::RowUpdate& u, index_t part_begin,
             index_t part_end) const {
    if (layout_ == SegmentLayout::kDia) {
      simd::dia_sweep_rows(dia_.view(), x, u, part_begin, part_end);
    } else {
      simd::sell_sweep_slices(sell_.view(), x, u, part_begin, part_end);
    }
  }

  /// out[i] = -(row i's segment . x) for every row i of parts
  /// [part_begin, part_end) — the kSave pass into `out`.
  void neg_sums(const double* x, double* out, index_t part_begin,
                index_t part_end) const {
    simd::RowUpdate save;
    save.mode = simd::RowUpdate::Mode::kSave;
    save.y = out;
    sweep(x, save, part_begin, part_end);
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
  index_t row_begin_ = 0;
  index_t row_end_ = 0;
  SellSegments sell_;
  DiaSegments dia_;
};

}  // namespace mstep::la
