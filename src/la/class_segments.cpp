#include "la/class_segments.hpp"

namespace mstep::la {

const char* to_string(SegmentLayout layout) {
  return layout == SegmentLayout::kDia ? "dia" : "sell";
}

ClassSegments ClassSegments::build(const CsrMatrix& a,
                                   const index_t* seg_begin,
                                   const index_t* seg_end, index_t row_begin,
                                   index_t row_end, const DiaMatrix* dia) {
  ClassSegments s;
  s.layout_ = dia ? SegmentLayout::kDia : SegmentLayout::kSell;
  s.row_begin_ = row_begin;
  s.row_end_ = row_end;
  if (dia) {
    s.dia_ = DiaSegments::build(a, *dia, seg_begin, seg_end, row_begin,
                                row_end);
  } else {
    s.sell_ = SellSegments::build(a, seg_begin, seg_end, row_begin, row_end);
  }
  return s;
}

}  // namespace mstep::la
