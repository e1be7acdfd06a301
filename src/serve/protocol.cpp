#include "serve/protocol.hpp"

#include <cstring>
#include <limits>
#include <string>

namespace mstep::serve {

const char* to_string(Retcode rc) {
  switch (rc) {
    case Retcode::kOk: return "ok";
    case Retcode::kBadRequest: return "bad_request";
    case Retcode::kBadConfig: return "bad_config";
    case Retcode::kBadProblem: return "bad_problem";
    case Retcode::kSolveFailed: return "solve_failed";
    case Retcode::kBusy: return "busy";
    case Retcode::kShuttingDown: return "shutting_down";
    case Retcode::kProtocol: return "protocol_error";
    case Retcode::kUnknownMatrix: return "unknown_matrix";
  }
  return "unknown_retcode";
}

bool retryable(Retcode rc) {
  return rc == Retcode::kBusy || rc == Retcode::kShuttingDown;
}

// ---- fixed-width little-endian copies -------------------------------------

namespace {

// Every integer and double crosses the wire as one fixed-width copy of
// its little-endian bytes.  A big-endian host byte-swaps inside the same
// copy, so both hosts run one code path.
constexpr bool kLittleEndianHost = __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;

std::uint32_t to_le(std::uint32_t v) {
  if constexpr (kLittleEndianHost) return v;
  return __builtin_bswap32(v);
}

std::uint64_t to_le(std::uint64_t v) {
  if constexpr (kLittleEndianHost) return v;
  return __builtin_bswap64(v);
}

template <class T>
void put_le(char* dst, T v) {
  v = to_le(v);
  std::memcpy(dst, &v, sizeof(v));
}

template <class T>
T get_le(const char* src) {
  T v;
  std::memcpy(&v, src, sizeof(v));
  return to_le(v);  // the swap is its own inverse
}

/// n doubles as their little-endian IEEE-754 bit patterns.
void put_f64s(char* dst, const double* src, std::size_t n) {
  static_assert(sizeof(double) == 8, "IEEE-754 double expected");
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, src + i, 8);
    put_le(dst + 8 * i, bits);
  }
}

void get_f64s(double* dst, const char* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = get_le<std::uint64_t>(src + 8 * i);
    std::memcpy(dst + i, &bits, 8);
  }
}

/// Index arrays travel widened to u64 each.
char* put_indices(char* dst, const std::vector<index_t>& v) {
  put_le(dst, static_cast<std::uint64_t>(v.size()));
  dst += 8;
  for (const index_t x : v) {
    put_le(dst, static_cast<std::uint64_t>(x));
    dst += 8;
  }
  return dst;
}

}  // namespace

// ---- writer ----------------------------------------------------------------

char* WireWriter::grow(std::size_t n) {
  const std::size_t at = out_.size();
  out_.resize(at + n);
  return &out_[at];
}

void WireWriter::u32(std::uint32_t v) { put_le(grow(4), v); }

void WireWriter::u64(std::uint64_t v) { put_le(grow(8), v); }

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ProtocolError("string too long for the wire");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void WireWriter::vec(const Vec& v) {
  char* dst = grow(8 + 8 * v.size());
  put_le(dst, static_cast<std::uint64_t>(v.size()));
  put_f64s(dst + 8, v.data(), v.size());
}

void WireWriter::csr(const la::CsrMatrix& m) {
  const std::size_t nptr = m.row_ptr().size();
  const std::size_t nnz = m.col_idx().size();
  const std::size_t nval = m.values().size();
  char* dst = grow(8 * (2 + 1 + nptr + 1 + nnz + 1 + nval));
  put_le(dst, static_cast<std::uint64_t>(m.rows()));
  put_le(dst + 8, static_cast<std::uint64_t>(m.cols()));
  dst = put_indices(dst + 16, m.row_ptr());
  dst = put_indices(dst, m.col_idx());
  put_le(dst, static_cast<std::uint64_t>(nval));
  put_f64s(dst + 8, m.values().data(), nval);
}

// ---- reader ----------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (n > bytes_.size() - pos_) {
    throw ProtocolError("truncated payload");
  }
}

const char* WireReader::take(std::size_t n) {
  need(n);
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t WireReader::u32() { return get_le<std::uint32_t>(take(4)); }

std::uint64_t WireReader::u64() { return get_le<std::uint64_t>(take(8)); }

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  const char* p = take(n);
  return std::string(p, n);
}

namespace {

/// Element count guard: rejects counts so large that n*8 would wrap
/// before need() could catch the truncation.
std::uint64_t checked_count(std::uint64_t n, const char* what) {
  if (n > (kDefaultMaxPayload / 8)) {
    throw ProtocolError(std::string("implausible ") + what + " count");
  }
  return n;
}

index_t checked_index(std::uint64_t v, const char* what) {
  if (v > static_cast<std::uint64_t>(std::numeric_limits<index_t>::max())) {
    throw ProtocolError(std::string(what) + " out of index range");
  }
  return static_cast<index_t>(v);
}

}  // namespace

Vec WireReader::vec() { return f64_array("vector"); }

Vec WireReader::f64_array(const char* what) {
  const std::uint64_t n = checked_count(u64(), what);
  const char* src = take(static_cast<std::size_t>(n) * 8);
  Vec v(static_cast<std::size_t>(n));
  get_f64s(v.data(), src, v.size());
  return v;
}

std::vector<index_t> WireReader::indices(const char* count_what,
                                         const char* entry_what) {
  const std::uint64_t n = checked_count(u64(), count_what);
  const char* src = take(static_cast<std::size_t>(n) * 8);
  std::vector<index_t> v(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = checked_index(get_le<std::uint64_t>(src + 8 * i), entry_what);
  }
  return v;
}

la::CsrMatrix WireReader::csr() {
  const index_t rows = checked_index(u64(), "rows");
  const index_t cols = checked_index(u64(), "cols");
  std::vector<index_t> row_ptr = indices("row_ptr", "row_ptr entry");
  std::vector<index_t> col = indices("col_idx", "col_idx entry");
  Vec val = f64_array("values");
  const std::uint64_t nptr = row_ptr.size();
  const std::uint64_t ncol = col.size();
  // Every later stage indexes through these arrays unchecked: reject a
  // structure that would send it out of bounds.
  const auto reject = [](const std::string& why) {
    throw ProtocolError("inconsistent CSR payload: " + why);
  };
  if (nptr != static_cast<std::uint64_t>(rows) + 1) {
    reject("row_ptr holds " + std::to_string(nptr) + " entries, not rows + 1");
  }
  if (row_ptr[0] != 0) reject("row_ptr[0] is not 0");
  if (static_cast<std::uint64_t>(row_ptr[rows]) != ncol) {
    reject("row_ptr[rows] is not the entry count");
  }
  for (index_t i = 0; i < rows; ++i) {
    if (row_ptr[i + 1] < row_ptr[i]) reject("row_ptr decreases");
  }
  for (index_t i = 0; i < rows; ++i) {
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      if (col[k] >= cols) reject("column index out of range");
      if (k > row_ptr[i] && col[k] <= col[k - 1]) {
        reject("columns do not strictly increase within a row");
      }
    }
  }
  try {
    return la::CsrMatrix(rows, cols, std::move(row_ptr), std::move(col),
                         std::move(val));
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("inconsistent CSR payload: ") + e.what());
  }
}

// ---- frame header ----------------------------------------------------------

std::string encode_header(MsgType type, std::uint64_t payload_len) {
  WireWriter w;
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(type));
  w.u64(payload_len);
  return w.take();
}

FrameHeader decode_header(const char* bytes, std::uint64_t max_payload) {
  const std::string view(bytes, kHeaderBytes);
  WireReader r(view);
  if (r.u32() != kMagic) {
    throw ProtocolError("bad frame magic (not an MSV1 peer?)");
  }
  const std::uint32_t type = r.u32();
  const std::uint64_t len = r.u64();
  if (type < static_cast<std::uint32_t>(MsgType::kSolve) ||
      type > static_cast<std::uint32_t>(MsgType::kErrorReply)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  if (len > max_payload) {
    throw ProtocolError("frame payload of " + std::to_string(len) +
                        " bytes exceeds the " + std::to_string(max_payload) +
                        "-byte limit");
  }
  return {static_cast<MsgType>(type), len};
}

// ---- messages --------------------------------------------------------------

std::string SolveRequest::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(source));
  switch (source) {
    case MatrixSource::kCatalog: w.str(problem); break;
    case MatrixSource::kInlineCsr: w.csr(matrix); break;
    case MatrixSource::kFingerprint: w.u64(fingerprint); break;
  }
  w.str(config);
  w.u32(static_cast<std::uint32_t>(rhs.size()));
  for (const Vec& b : rhs) w.vec(b);
  w.u8(want_trace ? 1 : 0);
  return w.take();
}

SolveRequest SolveRequest::decode(const std::string& payload) {
  WireReader r(payload);
  SolveRequest q;
  const std::uint8_t src = r.u8();
  if (src > static_cast<std::uint8_t>(MatrixSource::kFingerprint)) {
    throw ProtocolError("unknown matrix source " + std::to_string(src));
  }
  q.source = static_cast<MatrixSource>(src);
  switch (q.source) {
    case MatrixSource::kCatalog: q.problem = r.str(); break;
    case MatrixSource::kInlineCsr: q.matrix = r.csr(); break;
    case MatrixSource::kFingerprint: q.fingerprint = r.u64(); break;
  }
  q.config = r.str();
  const std::uint32_t nrhs = r.u32();
  q.rhs.reserve(nrhs);
  for (std::uint32_t i = 0; i < nrhs; ++i) q.rhs.push_back(r.vec());
  q.want_trace = r.u8() != 0;
  if (!r.exhausted()) throw ProtocolError("trailing bytes in solve request");
  return q;
}

bool SolveResponse::all_converged() const {
  if (retcode != Retcode::kOk || results.empty()) return false;
  for (const RhsResult& r : results) {
    if (!r.ok || !r.converged) return false;
  }
  return true;
}

std::string SolveResponse::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(retcode));
  if (retcode != Retcode::kOk) {
    w.str(message);
    return w.take();
  }
  w.u8(cache_hit ? 1 : 0);
  w.u64(fingerprint);
  w.str(format_selected);
  w.f64(setup_seconds);
  w.f64(solve_seconds);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const RhsResult& r : results) {
    w.u8(r.ok ? 1 : 0);
    if (!r.ok) {
      w.str(r.error);
      continue;
    }
    w.u8(r.converged ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(r.iterations));
    w.f64(r.final_delta_inf);
    w.vec(r.solution);
  }
  w.u64(request_id);
  w.str(trace);
  return w.take();
}

SolveResponse SolveResponse::decode(const std::string& payload) {
  WireReader r(payload);
  SolveResponse a;
  a.retcode = static_cast<Retcode>(r.u32());
  if (a.retcode != Retcode::kOk) {
    a.message = r.str();
    if (!r.exhausted()) throw ProtocolError("trailing bytes in solve reply");
    return a;
  }
  a.cache_hit = r.u8() != 0;
  a.fingerprint = r.u64();
  a.format_selected = r.str();
  a.setup_seconds = r.f64();
  a.solve_seconds = r.f64();
  const std::uint32_t n = r.u32();
  a.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RhsResult res;
    res.ok = r.u8() != 0;
    if (!res.ok) {
      res.error = r.str();
    } else {
      res.converged = r.u8() != 0;
      res.iterations = static_cast<std::int32_t>(r.u32());
      res.final_delta_inf = r.f64();
      res.solution = r.vec();
    }
    a.results.push_back(std::move(res));
  }
  a.request_id = r.u64();
  a.trace = r.str();
  if (!r.exhausted()) throw ProtocolError("trailing bytes in solve reply");
  return a;
}

std::string StatusResponse::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(retcode));
  w.str(body);
  return w.take();
}

StatusResponse StatusResponse::decode(const std::string& payload) {
  WireReader r(payload);
  StatusResponse a;
  a.retcode = static_cast<Retcode>(r.u32());
  a.body = r.str();
  if (!r.exhausted()) throw ProtocolError("trailing bytes in status reply");
  return a;
}

}  // namespace mstep::serve
