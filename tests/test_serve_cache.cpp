// The serve subsystem's process-local contracts: wire codec round-trips
// (including truncation and bad-magic rejection), golden bytes written by
// hand from docs/protocol.md, bitwise transport of special doubles,
// content fingerprints,
// the prepared-pipeline cache (hit on identical matrix+config, miss when
// either changes, LRU eviction under a tiny byte budget, bitwise identity
// with a direct Solver run), the admission gate, and the latency
// histogram.  The daemon end-to-end paths live in tests/test_served.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "problems/problem.hpp"
#include "serve/cache.hpp"
#include "serve/hash.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "solver/solver.hpp"

namespace mstep::serve {
namespace {

la::CsrMatrix tiny_spd() {
  // [4 1 0; 1 4 1; 0 1 4] — SPD, strictly diagonally dominant.
  return la::CsrMatrix(3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2},
                       {4.0, 1.0, 1.0, 4.0, 1.0, 1.0, 4.0});
}

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.1);
  w.str("hello frame");
  w.vec({1.0, -2.5, 3e-300});
  const std::string bytes = w.bytes();

  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -0.1);  // exact: bit-pattern transport
  EXPECT_EQ(r.str(), "hello frame");
  EXPECT_EQ(r.vec(), (Vec{1.0, -2.5, 3e-300}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, CsrRoundTrip) {
  const la::CsrMatrix m = tiny_spd();
  WireWriter w;
  w.csr(m);
  WireReader r(w.bytes());
  const la::CsrMatrix back = r.csr();
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  EXPECT_EQ(back.row_ptr(), m.row_ptr());
  EXPECT_EQ(back.col_idx(), m.col_idx());
  EXPECT_EQ(back.values(), m.values());
}

/// Decoding `m`'s encoding throws ProtocolError("inconsistent CSR payload:
/// ...") whose reason contains `why`.  CsrMatrix's constructor checks only
/// array lengths, so a hostile structure encodes as is.
void expect_csr_rejected(const la::CsrMatrix& m, const std::string& why) {
  WireWriter w;
  w.csr(m);
  WireReader r(w.bytes());
  try {
    (void)r.csr();
    ADD_FAILURE() << "accepted a payload with " << why;
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("inconsistent CSR payload: ", 0), 0u) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(Wire, CsrRejectsRowPtrNotStartingAtZero) {
  expect_csr_rejected(la::CsrMatrix(2, 2, {1, 1, 2}, {0, 1}, {1.0, 1.0}),
                      "row_ptr[0] is not 0");
}

TEST(Wire, CsrRejectsDecreasingRowPtr) {
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 2, 1}, {0}, {1.0}),
                      "row_ptr decreases");
}

TEST(Wire, CsrRejectsRowPtrEndOtherThanTheEntryCount) {
  // Row 1 claims entries [1, 5) of a one-entry payload.
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 1, 5}, {7}, {1.0}),
                      "row_ptr[rows] is not the entry count");
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 1, 1}, {0, 1}, {1.0, 1.0}),
                      "row_ptr[rows] is not the entry count");
}

TEST(Wire, CsrRejectsColumnsOutOfRange) {
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 1, 2}, {0, 2}, {1.0, 1.0}),
                      "column index out of range");
}

TEST(Wire, CsrRejectsColumnsNotStrictlyIncreasingInARow) {
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 2, 2}, {1, 0}, {1.0, 1.0}),
                      "columns do not strictly increase");
  expect_csr_rejected(la::CsrMatrix(2, 2, {0, 0, 2}, {1, 1}, {1.0, 1.0}),
                      "columns do not strictly increase");
}

TEST(Wire, TruncatedPayloadThrows) {
  WireWriter w;
  w.str("four byte length prefix plus this text");
  const std::string bytes = w.bytes();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string truncated = bytes.substr(0, cut);
    WireReader r(truncated);
    EXPECT_THROW((void)r.str(), ProtocolError) << "cut at " << cut;
  }
  // A count field promising more elements than the payload holds must
  // throw, not allocate first and fault later.
  WireWriter huge;
  huge.u64(~0ull);
  WireReader r(huge.bytes());
  EXPECT_THROW((void)r.vec(), ProtocolError);
}

TEST(Wire, HeaderRoundTripAndRejection) {
  const std::string h = encode_header(MsgType::kSolve, 1234);
  ASSERT_EQ(h.size(), kHeaderBytes);
  const FrameHeader fh = decode_header(h.data(), kDefaultMaxPayload);
  EXPECT_EQ(fh.type, MsgType::kSolve);
  EXPECT_EQ(fh.payload_len, 1234u);

  std::string bad_magic = h;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_header(bad_magic.data(), kDefaultMaxPayload),
               ProtocolError);
  // Payload length above the receiver's ceiling is rejected at the header.
  EXPECT_THROW((void)decode_header(h.data(), 100), ProtocolError);
}

TEST(Wire, SolveRequestRoundTrip) {
  SolveRequest q;
  q.source = MatrixSource::kInlineCsr;
  q.matrix = tiny_spd();
  q.config = "splitting=ssor;m=2";
  q.rhs = {{1.0, 2.0, 3.0}, {0.5, 0.25, 0.125}};
  const SolveRequest back = SolveRequest::decode(q.encode());
  EXPECT_EQ(back.source, MatrixSource::kInlineCsr);
  EXPECT_EQ(back.matrix.values(), q.matrix.values());
  EXPECT_EQ(back.config, q.config);
  EXPECT_EQ(back.rhs, q.rhs);

  SolveRequest fp;
  fp.source = MatrixSource::kFingerprint;
  fp.fingerprint = 0xfeedfacecafebeefull;
  const SolveRequest fp_back = SolveRequest::decode(fp.encode());
  EXPECT_EQ(fp_back.source, MatrixSource::kFingerprint);
  EXPECT_EQ(fp_back.fingerprint, 0xfeedfacecafebeefull);
}

TEST(Wire, SolveResponseRoundTrip) {
  SolveResponse p;
  p.retcode = Retcode::kOk;
  p.cache_hit = true;
  p.fingerprint = 42;
  p.format_selected = "dia";
  p.setup_seconds = 0.0;
  p.solve_seconds = 1.5;
  RhsResult good;
  good.ok = true;
  good.converged = true;
  good.iterations = 7;
  good.final_delta_inf = 1e-9;
  good.solution = {1.0, 2.0};
  RhsResult bad;
  bad.error = "singular splitting";
  p.results = {good, bad};
  const SolveResponse back = SolveResponse::decode(p.encode());
  EXPECT_EQ(back.retcode, Retcode::kOk);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.fingerprint, 42u);
  EXPECT_EQ(back.format_selected, "dia");
  EXPECT_EQ(back.results, p.results);
  EXPECT_FALSE(back.all_converged());  // the failed RHS counts

  StatusResponse s;
  s.retcode = Retcode::kBusy;
  s.body = "queue full";
  const StatusResponse s_back = StatusResponse::decode(s.encode());
  EXPECT_EQ(s_back.retcode, Retcode::kBusy);
  EXPECT_EQ(s_back.body, "queue full");
}

TEST(Wire, RetcodeCatalog) {
  EXPECT_STREQ(to_string(Retcode::kOk), "ok");
  EXPECT_TRUE(retryable(Retcode::kBusy));
  EXPECT_TRUE(retryable(Retcode::kShuttingDown));
  EXPECT_FALSE(retryable(Retcode::kBadConfig));
  EXPECT_FALSE(retryable(Retcode::kUnknownMatrix));
}

// ---- wire compatibility ----------------------------------------------------

/// Payload bytes spelled out one field at a time from the docs/protocol.md
/// layout, byte by byte in little-endian order — independent of the codec
/// under test.
struct Golden {
  std::string bytes;

  Golden& u8(unsigned v) {
    bytes.push_back(static_cast<char>(v & 0xffu));
    return *this;
  }
  Golden& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8((v >> (8 * i)) & 0xffu);
    return *this;
  }
  Golden& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<unsigned>((v >> (8 * i)) & 0xffu));
    return *this;
  }
  Golden& f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  Golden& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes += s;
    return *this;
  }
  Golden& vec(const Vec& v) {
    u64(v.size());
    for (const double x : v) f64(x);
    return *this;
  }
};

std::uint64_t bits_of(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void expect_same_bits(const Vec& got, const Vec& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits_of(got[i]), bits_of(want[i])) << "element " << i;
  }
}

TEST(WireGolden, InlineCsrSolveRequestMatchesTheDocumentedLayout) {
  SolveRequest q;
  q.source = MatrixSource::kInlineCsr;
  // [2 -1; -1 3]
  q.matrix = la::CsrMatrix(2, 2, {0, 2, 4}, {0, 1, 0, 1}, {2.0, -1.0, -1.0, 3.0});
  q.config = "m=2";
  q.rhs = {{1.0, -0.5}};
  q.want_trace = true;

  Golden g;
  g.u8(1);                                   // source: inline CSR
  g.u64(2).u64(2);                           // rows, cols
  g.u64(3).u64(0).u64(2).u64(4);             // row_ptr
  g.u64(4).u64(0).u64(1).u64(0).u64(1);      // col_idx
  g.u64(4).f64(2.0).f64(-1.0).f64(-1.0).f64(3.0);  // values
  g.str("m=2");                              // config
  g.u32(1).vec({1.0, -0.5});                 // rhs
  g.u8(1);                                   // want_trace
  // Spot-check the hand encoder itself: u64 2 is 02 00 .. 00.
  ASSERT_EQ(g.bytes.substr(1, 8), std::string("\x02\0\0\0\0\0\0\0", 8));

  EXPECT_EQ(q.encode(), g.bytes);
  const SolveRequest back = SolveRequest::decode(g.bytes);
  EXPECT_EQ(back.source, q.source);
  EXPECT_EQ(back.matrix.rows(), 2);
  EXPECT_EQ(back.matrix.cols(), 2);
  EXPECT_EQ(back.matrix.row_ptr(), q.matrix.row_ptr());
  EXPECT_EQ(back.matrix.col_idx(), q.matrix.col_idx());
  expect_same_bits(back.matrix.values(), q.matrix.values());
  EXPECT_EQ(back.config, q.config);
  ASSERT_EQ(back.rhs.size(), 1u);
  expect_same_bits(back.rhs[0], q.rhs[0]);
  EXPECT_TRUE(back.want_trace);
}

TEST(WireGolden, TwoResultSolveResponseMatchesTheDocumentedLayout) {
  SolveResponse p;
  p.retcode = Retcode::kOk;
  p.cache_hit = true;
  p.fingerprint = 0x0123456789abcdefull;
  p.format_selected = "dia";
  p.setup_seconds = 0.25;
  p.solve_seconds = 1.5;
  RhsResult good;
  good.ok = true;
  good.converged = true;
  good.iterations = 7;
  good.final_delta_inf = 1e-9;
  good.solution = {1.0, -2.0};
  RhsResult bad;
  bad.error = "singular splitting";
  p.results = {good, bad};
  p.request_id = 9;
  p.trace = "{}";

  Golden g;
  g.u32(0);                     // retcode ok
  g.u8(1);                      // cache_hit
  g.u64(0x0123456789abcdefull); // fingerprint
  g.str("dia");                 // format_selected
  g.f64(0.25).f64(1.5);         // setup_seconds, solve_seconds
  g.u32(2);                     // result count
  g.u8(1).u8(1).u32(7).f64(1e-9).vec({1.0, -2.0});  // ok result
  g.u8(0).str("singular splitting");               // failed result
  g.u64(9);                     // request_id
  g.str("{}");                  // trace
  ASSERT_EQ(g.bytes.substr(5, 8), std::string("\xef\xcd\xab\x89\x67\x45\x23\x01", 8));

  EXPECT_EQ(p.encode(), g.bytes);
  const SolveResponse back = SolveResponse::decode(g.bytes);
  EXPECT_EQ(back.retcode, p.retcode);
  EXPECT_EQ(back.cache_hit, p.cache_hit);
  EXPECT_EQ(back.fingerprint, p.fingerprint);
  EXPECT_EQ(back.format_selected, p.format_selected);
  EXPECT_EQ(back.setup_seconds, p.setup_seconds);
  EXPECT_EQ(back.solve_seconds, p.solve_seconds);
  EXPECT_EQ(back.results, p.results);
  EXPECT_EQ(back.request_id, p.request_id);
  EXPECT_EQ(back.trace, p.trace);
}

TEST(WireGolden, FrameHeaderMatchesTheDocumentedLayout) {
  Golden g;
  g.u32(0x3156534du).u32(1).u64(300);
  EXPECT_EQ(g.bytes.substr(0, 4), "MSV1");
  EXPECT_EQ(encode_header(MsgType::kSolve, 300), g.bytes);
}

TEST(Wire, SpecialDoublesAndExtremeIndicesRoundTripBitwise) {
  const Vec specials = {
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      from_bits(0x7ff8dead0000beefull),  // quiet NaN with a payload
      from_bits(0xfff8000000000001ull),  // negative NaN, other payload
      std::numeric_limits<double>::denorm_min(),
      from_bits(0x000fffffffffffffull),  // largest subnormal
  };
  constexpr index_t kMax = std::numeric_limits<index_t>::max();

  SolveRequest q;
  q.source = MatrixSource::kInlineCsr;
  // One row of a kMax-column matrix: the extreme index the wire accepts.
  q.matrix = la::CsrMatrix(1, kMax, {0, 2}, {0, kMax - 1}, {-0.0, specials[3]});
  q.rhs = {specials};
  const SolveRequest back = SolveRequest::decode(q.encode());
  EXPECT_EQ(back.matrix.cols(), kMax);
  EXPECT_EQ(back.matrix.col_idx(), q.matrix.col_idx());
  expect_same_bits(back.matrix.values(), q.matrix.values());
  ASSERT_EQ(back.rhs.size(), 1u);
  expect_same_bits(back.rhs[0], specials);

  SolveResponse p;
  RhsResult r;
  r.ok = true;
  r.final_delta_inf = specials[3];
  r.solution = specials;
  p.results = {r};
  const SolveResponse p_back = SolveResponse::decode(p.encode());
  ASSERT_EQ(p_back.results.size(), 1u);
  EXPECT_EQ(bits_of(p_back.results[0].final_delta_inf), bits_of(specials[3]));
  expect_same_bits(p_back.results[0].solution, specials);

  // INT32_MAX is the largest index; one past it is refused.
  Golden g;
  g.u64(1).u64(static_cast<std::uint64_t>(kMax) + 1);
  WireReader reader(g.bytes);
  try {
    (void)reader.csr();
    ADD_FAILURE() << "accepted cols = INT32_MAX + 1";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("out of index range"),
              std::string::npos)
        << e.what();
  }
  Golden entry;
  entry.u64(1).u64(2).u64(2).u64(0).u64(1);
  entry.u64(1).u64(static_cast<std::uint64_t>(kMax) + 1);
  WireReader entry_reader(entry.bytes);
  EXPECT_THROW((void)entry_reader.csr(), ProtocolError);
}

TEST(Hash, ContentSensitivity) {
  const la::CsrMatrix a = tiny_spd();
  la::CsrMatrix b = tiny_spd();
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(b));
  b.values()[0] = std::nextafter(b.values()[0], 5.0);  // one ulp flips it
  EXPECT_NE(matrix_fingerprint(a), matrix_fingerprint(b));
}

TEST(Hash, SmallEditsAllFingerprintApart) {
  // [5 1 0; 1 6 2; 0 2 7] with distinct values.
  const la::CsrMatrix base(3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2},
                           {5.0, 1.5, 1.25, 6.0, 2.5, 2.25, 7.0});
  std::vector<la::CsrMatrix> edits;
  {
    // Two sign flips: each flips bit 63 of one word.
    la::CsrMatrix m = base;
    m.values()[1] = -m.values()[1];
    m.values()[4] = -m.values()[4];
    edits.push_back(m);
  }
  {
    la::CsrMatrix m = base;
    std::swap(m.values()[0], m.values()[6]);
    edits.push_back(m);
  }
  {
    // Two column indices of row 1 swapped (values stay in place).
    std::vector<index_t> col = base.col_idx();
    std::swap(col[2], col[4]);
    edits.emplace_back(3, 3, base.row_ptr(), col, base.values());
  }
  {
    std::vector<index_t> rp = base.row_ptr();
    rp.push_back(rp.back());
    edits.emplace_back(4, 3, rp, base.col_idx(), base.values());
  }
  std::vector<std::uint64_t> fps = {matrix_fingerprint(base)};
  for (const la::CsrMatrix& m : edits) fps.push_back(matrix_fingerprint(m));
  for (std::size_t a = 0; a < fps.size(); ++a) {
    for (std::size_t b = a + 1; b < fps.size(); ++b) {
      EXPECT_NE(fps[a], fps[b]) << "variants " << a << " and " << b;
    }
  }
}

TEST(Hash, ClassesFoldIntoPipelineFingerprint) {
  const la::CsrMatrix m = tiny_spd();
  // No classes: the pipeline hash IS the matrix hash, so an inline
  // resend of a greedy-coloured matrix lands on the same entry.
  EXPECT_EQ(pipeline_fingerprint(m, {}), matrix_fingerprint(m));
  // Closed-form classes build a different ordering — different pipeline.
  color::ColorClasses classes;
  classes.classes = {{0, 2}, {1}};
  EXPECT_NE(pipeline_fingerprint(m, classes), matrix_fingerprint(m));
}

TEST(Hash, HexRoundTrip) {
  EXPECT_EQ(fingerprint_hex(0xabcull), "0000000000000abc");
  EXPECT_EQ(fingerprint_from_hex("0000000000000abc"), 0xabcull);
  EXPECT_EQ(fingerprint_from_hex("0xABC"), 0xabcull);
  EXPECT_THROW((void)fingerprint_from_hex("not hex"), std::invalid_argument);
  const std::uint64_t fp = matrix_fingerprint(tiny_spd());
  EXPECT_EQ(fingerprint_from_hex(fingerprint_hex(fp)), fp);
}

// ---- prepared-pipeline cache ----------------------------------------------

struct CacheFixture {
  std::shared_ptr<const ProblemData> load(const std::string& spec) {
    problems::Problem p = problems::ProblemRegistry::instance().create(spec);
    return make_problem_data(std::move(p.matrix), std::move(p.classes),
                             std::move(p.rhs), p.description);
  }

  PreparedCache::Lookup get(PreparedCache& cache,
                            std::shared_ptr<const ProblemData> data,
                            const std::string& config_text) {
    const auto config = solver::SolverConfig::from_string(config_text);
    return cache.get_or_prepare(data->fingerprint, config, config.to_string(),
                                [&data] { return data; });
  }
};

TEST(PreparedCache, HitOnIdenticalMatrixAndConfig) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const auto data = fx.load("poisson2d:n=8");

  const auto first = fx.get(cache, data, "splitting=ssor;m=2");
  EXPECT_FALSE(first.hit);
  const auto second = fx.get(cache, data, "splitting=ssor;m=2");
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.entry.get(), second.entry.get());
  // Config-string spelling does not matter, the canonical form is the key.
  const auto reordered = fx.get(cache, data, "m=2;splitting=ssor");
  EXPECT_TRUE(reordered.hit);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PreparedCache, MissWhenEitherKeyHalfChanges) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const auto data = fx.load("poisson2d:n=8");
  const auto other = fx.load("poisson2d:n=9");
  ASSERT_NE(data->fingerprint, other->fingerprint);

  EXPECT_FALSE(fx.get(cache, data, "splitting=ssor;m=2").hit);
  EXPECT_FALSE(fx.get(cache, data, "splitting=ssor;m=3").hit);   // new config
  EXPECT_FALSE(fx.get(cache, other, "splitting=ssor;m=2").hit);  // new matrix
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PreparedCache, LruEvictionUnderTinyBudget) {
  CacheFixture fx;
  // A budget no real pipeline fits: every insert evicts the rest, but the
  // incoming entry itself is always admitted.
  PreparedCache cache(1);
  const auto a = fx.load("poisson2d:n=8");
  const auto b = fx.load("poisson2d:n=9");

  EXPECT_FALSE(fx.get(cache, a, "splitting=ssor;m=2").hit);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE(fx.get(cache, b, "splitting=ssor;m=2").hit);  // evicts a
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  // a is gone: the revisit misses again, and its matrix is no longer
  // addressable by fingerprint.
  EXPECT_EQ(cache.find_matrix(a->fingerprint), nullptr);
  EXPECT_FALSE(fx.get(cache, a, "splitting=ssor;m=2").hit);
}

TEST(PreparedCache, LruEvictsLeastRecentlyUsedFirst) {
  CacheFixture fx;
  const auto a = fx.load("poisson2d:n=8");
  const auto b = fx.load("poisson2d:n=9");
  const auto c = fx.load("poisson2d:n=10");
  // Budget sized from the real estimates: any two of the three entries
  // fit, all three do not.
  PreparedCache probe(64ull << 20);
  (void)fx.get(probe, a, "splitting=ssor;m=2");
  (void)fx.get(probe, b, "splitting=ssor;m=2");
  (void)fx.get(probe, c, "splitting=ssor;m=2");
  const std::size_t three_entries = probe.stats().bytes;

  PreparedCache cache(three_entries - 1);
  (void)fx.get(cache, a, "splitting=ssor;m=2");
  (void)fx.get(cache, b, "splitting=ssor;m=2");
  EXPECT_TRUE(fx.get(cache, a, "splitting=ssor;m=2").hit);  // a now MRU
  (void)fx.get(cache, c, "splitting=ssor;m=2");  // evicts exactly b (LRU)
  EXPECT_NE(cache.find_matrix(a->fingerprint), nullptr);
  EXPECT_EQ(cache.find_matrix(b->fingerprint), nullptr);
  EXPECT_TRUE(fx.get(cache, a, "splitting=ssor;m=2").hit);
}

TEST(PreparedCache, CachedPipelineIsBitwiseIdenticalToDirectSolve) {
  CacheFixture fx;
  PreparedCache cache(64ull << 20);
  const std::string config_text = "splitting=ssor;m=2";
  const auto data = fx.load("femplate:a=8");  // ships closed-form classes
  ASSERT_FALSE(data->classes.classes.empty());

  const auto lookup = fx.get(cache, data, config_text);
  const std::vector<Vec> bs{data->rhs};
  const solver::BatchReport served = lookup.entry->prepared.solveMany(
      util::Span<const Vec>(bs.data(), bs.size()));

  solver::Solver direct = solver::Solver::from_config(
      solver::SolverConfig::from_string(config_text));
  const solver::Prepared prepared =
      direct.prepare(data->matrix, data->classes);
  const solver::BatchReport want =
      prepared.solveMany(util::Span<const Vec>(bs.data(), bs.size()));

  ASSERT_EQ(served.reports.size(), 1u);
  ASSERT_EQ(want.reports.size(), 1u);
  EXPECT_TRUE(want.reports[0].converged());
  EXPECT_EQ(served.reports[0].iterations(), want.reports[0].iterations());
  EXPECT_EQ(served.reports[0].result.final_delta_inf,
            want.reports[0].result.final_delta_inf);
  EXPECT_EQ(served.reports[0].solution, want.reports[0].solution);

  // The budget estimate counts what each pipeline holds beside the
  // problem data: the colour-permuted matrix and its two index maps, then
  // under DIA the operator's diagonals (which the sweep plan reads in
  // place, so no plan values), otherwise the sweep's SELL segments and a
  // SELL operator, one matrix each.
  const la::CsrMatrix& k = data->matrix;
  const std::size_t csr =
      static_cast<std::size_t>(k.nnz()) * (sizeof(double) + sizeof(index_t)) +
      static_cast<std::size_t>(k.rows() + 1) * sizeof(index_t);
  const std::size_t common =
      2 * csr + 2 * static_cast<std::size_t>(k.rows()) * sizeof(index_t) +
      data->rhs.size() * sizeof(double) + 2 * sizeof(double) + 4096;
  const solver::Prepared& csr_pipeline = lookup.entry->prepared;
  ASSERT_EQ(csr_pipeline.resolved_format(), solver::MatrixFormat::kCsr);
  EXPECT_EQ(estimate_entry_bytes(*data, csr_pipeline), common + csr);
  const solver::Prepared& dia =
      fx.get(cache, data, config_text + ";format=dia").entry->prepared;
  ASSERT_EQ(dia.resolved_format(), solver::MatrixFormat::kDia);
  ASSERT_NE(dia.dia_matrix(), nullptr);
  EXPECT_EQ(dia.sweep_plan()->dia().get(), dia.dia_matrix());
  EXPECT_EQ(estimate_entry_bytes(*data, dia),
            common + dia.dia_matrix()->stored_values() * sizeof(double));
  const solver::Prepared& sell =
      fx.get(cache, data, config_text + ";format=sell").entry->prepared;
  ASSERT_EQ(sell.resolved_format(), solver::MatrixFormat::kSell);
  ASSERT_EQ(sell.dia_matrix(), nullptr);
  EXPECT_EQ(estimate_entry_bytes(*data, sell), common + 2 * csr);
  EXPECT_EQ(cache.stats().bytes, estimate_entry_bytes(*data, csr_pipeline) +
                                     estimate_entry_bytes(*data, dia) +
                                     estimate_entry_bytes(*data, sell));
}

// ---- admission gate and histogram -----------------------------------------

TEST(Admission, BoundsInflightAndRecovers) {
  Admission gate(2);
  EXPECT_TRUE(gate.try_enter());
  EXPECT_TRUE(gate.try_enter());
  EXPECT_FALSE(gate.try_enter());  // full: this request is shed as kBusy
  EXPECT_EQ(gate.depth(), 2);
  gate.leave();
  EXPECT_TRUE(gate.try_enter());
  gate.leave();
  gate.leave();
  EXPECT_EQ(gate.depth(), 0);
}

TEST(LatencyHistogram, SummaryTracksSamples) {
  LatencyHistogram h;
  EXPECT_EQ(h.summary().count, 0u);
  for (int i = 0; i < 90; ++i) h.record(1e-3);
  for (int i = 0; i < 10; ++i) h.record(1.0);  // a slow 10% tail
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_NEAR(s.mean, (90 * 1e-3 + 10.0) / 100.0, 1e-12);
  // Log-bucketed percentiles: the right bucket, not exact values (the
  // geometric bucket midpoint may sit slightly above the true max).
  EXPECT_GT(s.p50, 0.5e-3);
  EXPECT_LT(s.p50, 2e-3);
  EXPECT_GT(s.p99, 0.5);  // the tail owns p99
  EXPECT_LT(s.p99, 2.0);
}

}  // namespace
}  // namespace mstep::serve
