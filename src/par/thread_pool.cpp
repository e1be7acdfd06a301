#include "par/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace mstep::par {

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) {
    throw std::invalid_argument(
        "ThreadPool: need >= 1 thread (the caller counts); serial execution "
        "means no pool, not a 0-thread pool");
  }
  const int extra = std::max(0, threads - 1);
  workers_.reserve(extra);
  for (int i = 0; i < extra; ++i) {
    // Workers name their trace track up front ("pool-1"..., the caller
    // thread is pool-0's role), so a trace taken later in the process
    // lifetime still labels every track.
    workers_.emplace_back([this, i] {
      obs::name_thread("pool-" + std::to_string(i + 1));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(index_t, index_t)>* body = nullptr;
    index_t end = 0;
    index_t chunk = 1;
    {
      // Check in: the job is read under the lock, so it is the job of
      // exactly this generation.
      std::unique_lock<std::mutex> lk(mutex_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      end = end_;
      chunk = chunk_;
    }
    run_chunks(*body, end, chunk);
    // Check out.  The caller returns (and its body goes out of scope) only
    // after the last worker has checked out.
    std::lock_guard<std::mutex> lk(mutex_);
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(const std::function<void(index_t, index_t)>& body,
                            index_t end, index_t chunk) {
  for (;;) {
    const index_t b = next_.fetch_add(chunk, std::memory_order_relaxed);
    if (b >= end) return;
    try {
      body(b, std::min(end, b + chunk));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      // Park the cursor at the end so every thread stops taking chunks.
      next_.store(end, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::for_range(index_t begin, index_t end,
                           const std::function<void(index_t, index_t)>& body) {
  if (begin >= end) return;
  if (workers_.empty() || end - begin < 2) {
    body(begin, end);
    return;
  }
  // One job at a time: a second caller waits here for the whole
  // job, not just the post, so it can never overwrite body_/pending_ of a
  // job still in flight.
  const std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
  const index_t chunk = std::max<index_t>(
      1, (end - begin) / (4 * static_cast<index_t>(threads())));
  {
    std::lock_guard<std::mutex> lk(mutex_);
    body_ = &body;
    end_ = end;
    chunk_ = chunk;
    next_.store(begin, std::memory_order_relaxed);
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  run_chunks(body, end, chunk);  // the caller participates
  std::unique_lock<std::mutex> lk(mutex_);
  // Every worker checks in and out of every job, even one whose chunks
  // the caller already took; only then may the next job be posted.
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr e;
    std::swap(e, error_);
    std::rethrow_exception(e);
  }
}

void ThreadPool::for_each(index_t begin, index_t end,
                          const std::function<void(index_t)>& body) {
  for_range(begin, end, [&](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) body(i);
  });
}

}  // namespace mstep::par
