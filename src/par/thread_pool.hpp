// Shared-memory execution substrate.
//
// The point of the multicolor ordering is that every equation in a colour
// class can be updated simultaneously.  This pool backs a parallel
// within-class sweep: because the class diagonal blocks are diagonal, the
// parallel result is BITWISE identical to the serial one (each row reads
// only other-class values and writes only itself) — a property the tests
// assert with real threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "la/vector.hpp"

namespace mstep::par {

/// Fixed-size worker pool executing half-open index ranges.
///
/// for_range(begin, end, body) partitions [begin, end) into chunks and
/// runs body(chunk_begin, chunk_end) on the workers plus the calling
/// thread, returning when the whole range is done.  If body throws, the
/// sweep is cut short, the first exception is rethrown on the calling
/// thread, and the pool remains usable for subsequent jobs.
///
/// Any number of threads may dispatch on one pool: each job holds
/// a dispatch mutex from post to return, so concurrent callers queue
/// whole jobs.  A body must not dispatch on the pool running it.
class ThreadPool {
 public:
  /// `threads` total workers including the caller; 1 means serial.
  /// Throws std::invalid_argument when threads < 1: a zero-thread pool
  /// cannot exist — "no threading" is expressed by constructing no pool at
  /// all (ExecutionConfig::resolve() == 0), never by an empty pool.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  void for_range(index_t begin, index_t end,
                 const std::function<void(index_t, index_t)>& body);

  /// Convenience: per-index body.
  void for_each(index_t begin, index_t end,
                const std::function<void(index_t)>& body);

 private:
  void worker_loop();
  void run_chunks(const std::function<void(index_t, index_t)>& body,
                  index_t end, index_t chunk);

  std::vector<std::thread> workers_;

  std::mutex dispatch_mutex_;  // held by the dispatching thread for a whole job
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;  // first exception thrown by a body

  // The current job.  body_, end_ and chunk_ are written by for_range and
  // read by workers only under mutex_, at check-in; next_ is the shared
  // chunk cursor.  for_range posts the next job only after every worker
  // has checked out of this one (pending_ == 0), so no worker can run a
  // stale body on a later job's range.
  const std::function<void(index_t, index_t)>* body_ = nullptr;
  index_t end_ = 0;
  index_t chunk_ = 1;
  std::atomic<index_t> next_{0};
  int pending_ = 0;  // workers not yet checked out of generation_
};

}  // namespace mstep::par
