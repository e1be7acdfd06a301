#include "serve/hash.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace mstep::serve {

namespace {

/// splitmix64's output finalizer: a bijection in which every input bit
/// reaches every output bit.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Streaming word hash: one mixed 64-bit word folded in per step.
class WordHash {
 public:
  void u64(std::uint64_t v) {
    state_ = (state_ ^ mix64(v)) * 0x9e3779b97f4a7c15ull;
  }
  void indices(const std::vector<index_t>& v) {
    for (const index_t x : v) u64(static_cast<std::uint64_t>(x));
  }
  void f64s(const std::vector<double>& v) {
    for (const double x : v) {
      std::uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      u64(bits);
    }
  }

  /// The final mix spreads the high state bits into the low ones.
  [[nodiscard]] std::uint64_t digest() const { return mix64(state_); }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::uint64_t matrix_fingerprint(const la::CsrMatrix& m) {
  WordHash h;
  h.u64(static_cast<std::uint64_t>(m.rows()));
  h.u64(static_cast<std::uint64_t>(m.cols()));
  h.indices(m.row_ptr());
  h.indices(m.col_idx());
  h.f64s(m.values());
  return h.digest();
}

std::uint64_t pipeline_fingerprint(const la::CsrMatrix& m,
                                   const color::ColorClasses& classes) {
  std::uint64_t fp = matrix_fingerprint(m);
  if (classes.classes.empty()) return fp;
  WordHash h;
  h.u64(fp);
  h.u64(classes.classes.size());
  for (const auto& cls : classes.classes) {
    h.u64(cls.size());
    h.indices(cls);
  }
  return h.digest();
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::uint64_t fingerprint_from_hex(const std::string& text) {
  std::string t = text;
  if (t.rfind("0x", 0) == 0 || t.rfind("0X", 0) == 0) t = t.substr(2);
  if (t.empty() || t.size() > 16) {
    throw std::invalid_argument("bad fingerprint '" + text +
                                "': want up to 16 hex digits");
  }
  std::uint64_t v = 0;
  for (const char c : t) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("bad fingerprint '" + text +
                                  "': non-hex digit");
    }
  }
  return v;
}

}  // namespace mstep::serve
