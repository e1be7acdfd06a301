// Per-layer timing for the traced run, from outside the library.
//
// Nothing in src/ is instrumented: the traced run wraps the public
// objects a solve is made of — the preconditioner (the m-step sweep) and
// an operator rebuilt from Prepared::matrix() (the outer SpMV) — in
// decorators that record one span per call, and hands both to
// core::pcg_solve.  Spans (name, start, end, parent) stay in memory and
// are written as Chrome trace events when the run ends.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/preconditioner.hpp"
#include "la/csr_matrix.hpp"
#include "la/dia_matrix.hpp"
#include "la/linear_operator.hpp"
#include "la/sell_matrix.hpp"
#include "record.hpp"
#include "solver/config.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  long long id = 0;
  long long parent = -1;  // -1: a root span
};

/// The spans of one thread.  Spans nest through open()/close(); each is
/// stored when it closes, so the list is in end-time order.
class SpanLog {
 public:
  explicit SpanLog(int track) : track_(track) {}

  long long open(const char* name) {
    const long long id = static_cast<long long>(track_) * 100000000LL + next_++;
    stack_.push_back(Span{name, now_s(), 0.0, id,
                          stack_.empty() ? -1 : stack_.back().id});
    return id;
  }

  void close() {
    Span s = std::move(stack_.back());
    stack_.pop_back();
    s.end_s = now_s();
    spans_.push_back(std::move(s));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int track_;
  long long next_ = 0;
  std::vector<Span> stack_;
  std::vector<Span> spans_;
};

/// RAII span on a log.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log) { log_.open(name); }
  ~Scoped() { log_.close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
};

/// Self time per span name: each span's duration minus the time its
/// direct children cover.  Children of one parent on one track are
/// disjoint (they nest), so the subtraction is exact.
inline std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::map<long long, double> child_time;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    out[s.name] += (s.end_s - s.start_s) - child_time[s.id];
  }
  return out;
}

inline long long span_count(const std::vector<Span>& spans,
                            const std::string& name) {
  long long n = 0;
  for (const Span& s : spans) n += s.name == name;
  return n;
}

/// Chrome trace-event JSON (the format of the library's own tracer and
/// tools/check_trace.py): complete "X" events in end-time order per
/// track, times in steady-clock microseconds, which every process shares,
/// so run.py can merge the traces of restarted workers onto one timeline.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<std::vector<Span>>& tracks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"bench-%zu\"}}",
                 first ? "" : ",", t, t);
    first = false;
    for (const Span& s : tracks[t]) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld}}",
                   s.name.c_str(), t, s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, s.id, s.parent);
    }
  }
  std::fputs("\n],\"counters\":{},\"dropped_events\":0}\n", f);
  return std::fclose(f) == 0;
}

/// Times every apply() of the wrapped preconditioner as a "core.sweep"
/// span.  Results are the inner object's, bit for bit.
class TimedPreconditioner final : public mstep::core::Preconditioner {
 public:
  TimedPreconditioner(const mstep::core::Preconditioner& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] mstep::index_t size() const override { return inner_.size(); }
  void apply(const mstep::Vec& r, mstep::Vec& z) const override {
    const Scoped span(log_, "core.sweep");
    inner_.apply(r, z);
  }
  [[nodiscard]] int steps() const override { return inner_.steps(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const mstep::core::Preconditioner& inner_;
  SpanLog& log_;
};

/// Times every product of the wrapped operator as a "la.spmv" span,
/// forwarding the execution-policy forms so a threaded solve stays
/// threaded.
class TimedOperator final : public mstep::la::LinearOperator {
 public:
  TimedOperator(const mstep::la::LinearOperator& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] mstep::index_t rows() const override { return inner_.rows(); }
  void multiply(const mstep::Vec& x, mstep::Vec& y) const override {
    const Scoped span(log_, "la.spmv");
    inner_.multiply(x, y);
  }
  void multiply_sub(const mstep::Vec& x, mstep::Vec& y) const override {
    const Scoped span(log_, "la.spmv");
    inner_.multiply_sub(x, y);
  }
  void multiply(const mstep::Vec& x, mstep::Vec& y,
                const mstep::par::Execution& exec) const override {
    const Scoped span(log_, "la.spmv");
    inner_.multiply(x, y, exec);
  }
  void multiply_sub(const mstep::Vec& x, mstep::Vec& y,
                    const mstep::par::Execution& exec) const override {
    const Scoped span(log_, "la.spmv");
    inner_.multiply_sub(x, y, exec);
  }
  [[nodiscard]] mstep::index_t num_nonzero_diagonals() const override {
    return inner_.num_nonzero_diagonals();
  }

 private:
  const mstep::la::LinearOperator& inner_;
  SpanLog& log_;
};

/// An operator over `m` in a given storage format, owning its storage,
/// with the bytes one product moves by the streaming model (matrix
/// storage once, x read, y read and written) — computed, not measured.
struct OwnedOperator {
  std::unique_ptr<mstep::la::DiaMatrix> dia;
  std::unique_ptr<mstep::la::SellMatrix> sell;
  std::unique_ptr<mstep::la::LinearOperator> op;
  double bytes_per_product = 0.0;
};

inline OwnedOperator build_operator(const mstep::la::CsrMatrix& m,
                                    mstep::solver::MatrixFormat format) {
  using mstep::solver::MatrixFormat;
  OwnedOperator o;
  const double n = m.rows();
  const double vectors = 3.0 * 8.0 * n;
  if (format == MatrixFormat::kDia) {
    o.dia = std::make_unique<mstep::la::DiaMatrix>(
        mstep::la::DiaMatrix::from_csr(m));
    o.op = std::make_unique<mstep::la::DiaOperator>(*o.dia);
    o.bytes_per_product = 8.0 * o.dia->stored_values() + vectors;
  } else if (format == MatrixFormat::kSell) {
    o.sell = std::make_unique<mstep::la::SellMatrix>(
        mstep::la::SellMatrix::from_csr(m));
    o.op = std::make_unique<mstep::la::SellOperator>(*o.sell);
    o.bytes_per_product = 12.0 * o.sell->stored_values() + vectors;
  } else {
    o.op = std::make_unique<mstep::la::CsrOperator>(m);
    o.bytes_per_product = 12.0 * m.nnz() + 4.0 * (n + 1) + vectors;
  }
  return o;
}

/// Bytes one multicolour m-step SSOR apply moves by the streaming model:
/// per step, every off-diagonal entry (value + column) once, the gathered
/// z once, and per row r, the diagonal, y (read + write), z (write) and
/// the class sums (write + read).  Computed, not measured.
inline double sweep_bytes_per_apply(const mstep::la::CsrMatrix& m, int steps) {
  const double n = m.rows();
  const double offdiag = static_cast<double>(m.nnz()) - n;
  return steps * (12.0 * offdiag + 8.0 * n + 56.0 * n);
}

/// Computed bytes a solve keeps live: the CSR matrix, the operator's own
/// storage, the sweep's class segments (every off-diagonal entry) and
/// eight solve-length vectors.
inline double working_set_bytes(const mstep::la::CsrMatrix& m,
                                const OwnedOperator& op) {
  const double n = m.rows();
  const double nnz = m.nnz();
  return 12.0 * nnz + op.bytes_per_product + 12.0 * (nnz - n) + 64.0 * n;
}

}  // namespace perfbench
