// Record stream of the benchmark worker: one JSON object per line on
// stdout, flushed as it is written, so run.py keeps every record a worker
// emitted before it crashed.
//
//   {"ev":"begin","what":"op"}             an operation is about to run
//   {"ev":"op","failed":0,...}             its outcome and timings
//   {"ev":"traced",...}                    one untraced + traced call pair
//   {"ev":"metric","name":"...","value":x} one per-layer figure
//   {"ev":"stage","name":"..."}            a stage finished completely
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a sample (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// One JSON line; fields are appended in call order.
class Line {
 public:
  explicit Line(const char* ev) { text_ = std::string("{\"ev\":\"") + ev + '"'; }

  Line& num(const char* key, double v) {
    char buf[64];
    // Non-finite values are not JSON; they only arise from a broken
    // solve, whose record is already marked failed.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : -1.0);
    return raw(key, buf);
  }
  Line& integer(const char* key, long long v) {
    return raw(key, std::to_string(v));
  }
  Line& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Line& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    quoted += '"';
    return raw(key, quoted);
  }

  /// Write the line to stdout and flush it.
  void emit() {
    text_ += "}\n";
    std::fputs(text_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  Line& raw(const char* key, const std::string& value) {
    text_ += ",\"";
    text_ += key;
    text_ += "\":";
    text_ += value;
    return *this;
  }

  std::string text_;
};

inline void emit_metric(const std::string& name, double value) {
  Line("metric").str("name", name).num("value", value).emit();
}

inline void emit_begin(const std::string& what) {
  Line("begin").str("what", what).emit();
}

inline void emit_stage_done(const std::string& name) {
  Line("stage").str("name", name).emit();
}

}  // namespace perfbench
