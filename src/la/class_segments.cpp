#include "la/class_segments.hpp"

namespace mstep::la {

const char* to_string(SegmentLayout layout) {
  return layout == SegmentLayout::kDia ? "dia" : "sell";
}

ClassSegments ClassSegments::build(const CsrMatrix& a,
                                   const index_t* seg_begin,
                                   const index_t* seg_end, index_t row_begin,
                                   index_t row_end) {
  ClassSegments s;
  s.layout_ = SegmentLayout::kSell;
  s.row_begin_ = row_begin;
  s.row_end_ = row_end;
  s.sell_ = SellSegments::build(a, seg_begin, seg_end, row_begin, row_end);
  return s;
}

ClassSegments ClassSegments::build(const DiaMatrix& dia, index_t block,
                                   index_t first_offset,
                                   index_t last_offset) {
  ClassSegments s;
  s.layout_ = SegmentLayout::kDia;
  s.dia_ = DiaSegments::build(dia, block, first_offset, last_offset);
  s.row_begin_ = s.dia_.row_begin();
  s.row_end_ = s.dia_.row_begin() + s.dia_.rows();
  return s;
}

}  // namespace mstep::la
