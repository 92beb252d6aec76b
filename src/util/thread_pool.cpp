#include "util/thread_pool.hpp"

#include <algorithm>

namespace mpleo::util {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The caller thread participates in every parallel_for, so spawn one
  // worker fewer than the requested width.
  workers_.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] {
      return stop_ || (job_.fn != nullptr && job_.next < job_.count);
    });
    if (stop_) return;
    // Claim and run chunks until this job is drained.
    while (job_.fn != nullptr && job_.next < job_.count) {
      const std::size_t begin = job_.next;
      const std::size_t end = std::min(begin + job_.chunk, job_.count);
      job_.next = end;
      ++job_.active;
      const auto* fn = job_.fn;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*fn)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --job_.active;
      if (error && !job_.error) job_.error = error;
      if (job_.next >= job_.count && job_.active == 0) done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    fn(0, count);
    return;
  }
  const std::size_t width = thread_count();
  const std::size_t chunk = std::max<std::size_t>(1, count / (width * 8));

  std::unique_lock<std::mutex> lock(mutex_);
  // One job at a time: nested/concurrent submissions run inline instead of
  // deadlocking on the shared job slot.
  if (job_.fn != nullptr) {
    lock.unlock();
    fn(0, count);
    return;
  }
  job_.fn = &fn;
  job_.count = count;
  job_.chunk = chunk;
  job_.next = 0;
  job_.active = 0;
  job_.error = nullptr;
  lock.unlock();
  wake_.notify_all();

  // The submitting thread works too.
  lock.lock();
  while (job_.next < job_.count) {
    const std::size_t begin = job_.next;
    const std::size_t end = std::min(begin + job_.chunk, job_.count);
    job_.next = end;
    ++job_.active;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    --job_.active;
    if (error && !job_.error) job_.error = error;
  }
  done_.wait(lock, [this] { return job_.next >= job_.count && job_.active == 0; });
  const std::exception_ptr error = job_.error;
  job_.fn = nullptr;
  job_.error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(count, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace mpleo::util
