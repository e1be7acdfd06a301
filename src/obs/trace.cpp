#include "obs/trace.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json_writer.hpp"

namespace mstep::obs {
namespace {

using Clock = std::chrono::steady_clock;

/// One recorded complete span ("ph":"X").  `name` is a static string
/// (phase names are literals), so events are 32 bytes and recording
/// never allocates after the ring warms up.
struct TraceEvent {
  const char* name;
  std::int64_t ts_us;
  std::int64_t dur_us;
  std::uint64_t correlation;
};

/// Per-thread ring buffer.  The mutex is uncontended on the hot path
/// (only the owning thread records); export takes it briefly from the
/// exporting thread, which is what keeps concurrent record/export
/// TSan-clean.
struct ThreadBuffer {
  std::mutex mutex;
  int tid = 0;
  std::string name;
  std::vector<TraceEvent> events;  // ring once size() hits kCapacity
  std::size_t head = 0;            // next overwrite slot when full
  std::size_t overwritten = 0;
};

// 64Ki events/thread (~2 MB) bounds a long-running daemon; the export
// reports how many events wrap-around discarded.
constexpr std::size_t kCapacity = std::size_t{1} << 16;

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The calling thread's buffer, registered on first use.  The registry
/// holds a shared_ptr so the events outlive the thread.
ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    b->tid = static_cast<int>(r.buffers.size());
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

/// MSTEP_TRACE=on|1 enables tracing at startup, mirroring MSTEP_SIMD.
bool env_enabled() {
  const char* v = std::getenv("MSTEP_TRACE");
  if (v == nullptr) return false;
  return std::strcmp(v, "on") == 0 || std::strcmp(v, "1") == 0;
}

thread_local std::uint64_t tls_correlation = 0;

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kFlops: return "flops";
    case Counter::kBytes: return "bytes_moved";
    case Counter::kVecOps: return "vec_ops";
    case Counter::kDots: return "dots";
    case Counter::kSpmvs: return "spmvs";
    case Counter::kSweeps: return "sweeps";
    case Counter::kCacheHits: return "cache_hits";
    case Counter::kCounterCount: break;
  }
  return "unknown";
}

Tracer::Tracer() {
  (void)epoch();  // pin the epoch before any span can sample the clock
  enabled_.store(env_enabled(), std::memory_order_relaxed);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch())
      .count();
}

void Tracer::record(const char* name, std::int64_t ts_us, std::int64_t dur_us,
                    std::uint64_t correlation) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  const TraceEvent ev{name, ts_us, dur_us, correlation};
  if (buf.events.size() < kCapacity) {
    if (buf.events.empty()) buf.events.reserve(256);
    buf.events.push_back(ev);
  } else {
    // Ring wrap: overwrite the oldest event.  Spans record at END, so
    // any surviving subset is still strictly nested per thread.
    buf.events[buf.head] = ev;
    buf.head = (buf.head + 1) % kCapacity;
    buf.overwritten++;
  }
}

void Tracer::add(Counter c, long long v) {
  counters_[static_cast<int>(c)].fetch_add(v, std::memory_order_relaxed);
}

long long Tracer::counter(Counter c) const {
  return counters_[static_cast<int>(c)].load(std::memory_order_relaxed);
}

void Tracer::name_thread(const std::string& name) {
#ifdef MSTEP_OBS_DISABLED
  (void)name;
#else
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.name = name;
#endif
}

std::size_t Tracer::dropped_events() const {
  std::size_t total = 0;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> b(buf->mutex);
    total += buf->overwritten;
  }
  return total;
}

void Tracer::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> b(buf->mutex);
    buf->events.clear();
    buf->head = 0;
    buf->overwritten = 0;
  }
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

std::string Tracer::chrome_json(std::uint64_t correlation) const {
  util::Json events = util::Json::array();
  std::size_t dropped = 0;
  Registry& r = registry();
  // Snapshot under the registry lock; each buffer lock is held only
  // long enough to copy its ring out in chronological order.
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers) {
    std::vector<TraceEvent> chron;
    std::string name;
    int tid = 0;
    {
      std::lock_guard<std::mutex> b(buf->mutex);
      tid = buf->tid;
      name = buf->name;
      dropped += buf->overwritten;
      chron.reserve(buf->events.size());
      for (std::size_t i = buf->head; i < buf->events.size(); ++i) {
        chron.push_back(buf->events[i]);
      }
      for (std::size_t i = 0; i < buf->head; ++i) {
        chron.push_back(buf->events[i]);
      }
    }
    if (correlation != 0) {
      std::vector<TraceEvent> kept;
      for (const auto& ev : chron) {
        if (ev.correlation == correlation) kept.push_back(ev);
      }
      chron.swap(kept);
    }
    if (chron.empty()) continue;
    if (!name.empty()) {
      util::Json meta = util::Json::object();
      meta.set("name", "thread_name")
          .set("ph", "M")
          .set("pid", 1)
          .set("tid", tid)
          .set("args", util::Json::object().set("name", name));
      events.push(std::move(meta));
    }
    for (const auto& ev : chron) {
      util::Json e = util::Json::object();
      e.set("name", ev.name)
          .set("ph", "X")
          .set("ts", static_cast<long long>(ev.ts_us))
          .set("dur", static_cast<long long>(ev.dur_us))
          .set("pid", 1)
          .set("tid", tid);
      if (ev.correlation != 0) {
        e.set("args", util::Json::object().set(
                          "correlation",
                          static_cast<long long>(ev.correlation)));
      }
      events.push(std::move(e));
    }
  }
  util::Json counters = util::Json::object();
  for (int i = 0; i < kNumCounters; ++i) {
    counters.set(counter_name(static_cast<Counter>(i)),
                 counters_[i].load(std::memory_order_relaxed));
  }
  util::Json doc = util::Json::object();
  doc.set("traceEvents", std::move(events))
      .set("displayTimeUnit", "ms")
      .set("counters", std::move(counters))
      .set("dropped_events", static_cast<long long>(dropped));
  return doc.dump_string();
}

std::uint64_t correlation() { return tls_correlation; }

CorrelationScope::CorrelationScope(std::uint64_t id)
    : saved_(tls_correlation) {
  tls_correlation = id;
}

CorrelationScope::~CorrelationScope() { tls_correlation = saved_; }

EnableScope::EnableScope() {
  Tracer::instance().scopes_.fetch_add(1, std::memory_order_relaxed);
}

EnableScope::~EnableScope() {
  Tracer::instance().scopes_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace mstep::obs
