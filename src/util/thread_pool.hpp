// A small fixed-size thread pool with a blocking parallel_for primitive.
//
// The simulation kernel (EphemerisSet, VisibilityCache precompute) is
// embarrassingly parallel across satellites: each index writes only its own
// output slot. parallel_for exposes exactly that shape — no futures, no
// per-task allocation on the hot path — and the caller thread participates
// in the work, so a pool is never slower than the serial loop by more than
// the dispatch cost. Work is handed out chunk-by-chunk from an atomic
// cursor, which load-balances uneven per-index costs (eccentric orbits,
// cache-cold satellites) without any per-index synchronisation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mpleo::util {

class ThreadPool {
 public:
  // `thread_count == 0` sizes the pool to the hardware concurrency.
  // A pool of size 1 degenerates to running everything on the caller.
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads that execute work (workers + the calling thread).
  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  // Runs fn(i) for every i in [0, count) and blocks until all are done.
  // Indices are handed out in chunks; fn must be safe to call concurrently
  // for distinct i. If any invocation throws, the first exception is
  // rethrown on the caller after the loop drains.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  // Chunked variant: fn(begin, end) over disjoint subranges of [0, count).
  void parallel_for_chunks(std::size_t count,
                           const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 1;
    std::size_t next = 0;        // next unclaimed index (guarded by mutex_)
    std::size_t active = 0;      // workers currently inside fn
    std::exception_ptr error;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;   // workers wait here for a job
  std::condition_variable done_;   // submitter waits here for completion
  Job job_;
  bool stop_ = false;
};

}  // namespace mpleo::util
