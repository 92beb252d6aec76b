#include "util/stream_queue.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "util/thread_pool.hpp"

namespace mpleo::util {

ChunkStream::ChunkStream(std::size_t chunk_count, std::size_t slot_count)
    : chunk_count_(chunk_count),
      slot_count_(std::max<std::size_t>(
          1, std::min(slot_count, std::max<std::size_t>(chunk_count, 1)))) {
  produce_turn_.resize(slot_count_);
  for (std::size_t s = 0; s < slot_count_; ++s) produce_turn_[s] = s;
  published_.assign(slot_count_, 0);
}

std::size_t ChunkStream::begin_produce(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  std::unique_lock lock(mutex_);
  slot_free_.wait(lock,
                  [&] { return aborted_ || produce_turn_[slot] == chunk; });
  if (aborted_) throw ChunkStreamAborted{};
  return slot;
}

void ChunkStream::publish(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  {
    std::lock_guard lock(mutex_);
    published_[slot] = 1;
  }
  published_cv_.notify_one();
}

bool ChunkStream::wait_ready(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  std::unique_lock lock(mutex_);
  published_cv_.wait(lock, [&] {
    return aborted_ || (produce_turn_[slot] == chunk && published_[slot] != 0);
  });
  return !aborted_;
}

bool ChunkStream::poll_ready(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  std::lock_guard lock(mutex_);
  return aborted_ || (produce_turn_[slot] == chunk && published_[slot] != 0);
}

void ChunkStream::release(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  {
    std::lock_guard lock(mutex_);
    published_[slot] = 0;
    produce_turn_[slot] = chunk + slot_count_;
  }
  // More than one producer can be parked on this condition (distinct future
  // chunks mapping to distinct slots woken spuriously is fine; correctness
  // only needs the one whose turn arrived to wake eventually).
  slot_free_.notify_all();
}

void ChunkStream::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
  }
  slot_free_.notify_all();
  published_cv_.notify_all();
}

void stream_chunks(ThreadPool* pool, std::size_t chunk_count,
                   std::size_t slot_count,
                   const std::function<void(std::size_t, std::size_t)>& produce,
                   const std::function<void(std::size_t, std::size_t)>& consume) {
  if (chunk_count == 0) return;
  if (pool == nullptr || pool->thread_count() <= 1) {
    // Serial: each chunk is produced then immediately consumed in one slot.
    for (std::size_t c = 0; c < chunk_count; ++c) {
      produce(c, 0);
      consume(c, 0);
    }
    return;
  }

  ChunkStream stream(chunk_count, slot_count);
  std::exception_ptr produce_error;
  std::mutex error_mutex;

  // The pool's parallel_for hands indices out in ascending ranges and, on an
  // error, still drains every remaining index (recording only the first
  // exception). A failed chunk would therefore never publish and the
  // consumer — plus every producer behind the dead slot — would block
  // forever. Aborting the stream BEFORE rethrowing turns all of those waits
  // into immediate ChunkStreamAborted exits, which the driver swallows so
  // the first real error is what propagates.
  const auto run_chunk = [&](std::size_t chunk) {
    std::size_t slot = 0;
    try {
      slot = stream.begin_produce(chunk);
    } catch (const ChunkStreamAborted&) {
      return;  // stream already failed; nothing to clean up
    }
    try {
      produce(chunk, slot);
    } catch (...) {
      {
        std::lock_guard lock(error_mutex);
        if (!produce_error) produce_error = std::current_exception();
      }
      stream.abort();
      return;
    }
    stream.publish(chunk);
  };

  // Producers run on the pool from a helper thread so this thread is free to
  // consume; the helper participates in the parallel_for as one more
  // producer lane. Each lane claims the next chunk one at a time, so the
  // lanes always hold the lowest unproduced chunks. (Handing lanes ranges
  // of consecutive chunks would park a lane on a slot that only another
  // lane's earlier chunks can free, serialising production.)
  std::atomic<std::size_t> next_chunk{0};
  const auto run_lane = [&](std::size_t) {
    for (std::size_t c = next_chunk.fetch_add(1); c < chunk_count;
         c = next_chunk.fetch_add(1)) {
      run_chunk(c);
    }
  };
  std::thread driver([&] { pool->parallel_for(pool->thread_count(), run_lane); });

  // This thread produces too while chunk c is not ready: it claims the
  // lowest unclaimed chunk if that lies below c + slot_count. Every chunk
  // below c is released, so that chunk's slot is free and begin_produce
  // returns at once; this thread never waits on a slot only it could free.
  // Once every such chunk is claimed, chunk c is in some lane's hands and
  // this thread blocks on it.
  const auto claim_below = [&](std::size_t limit, std::size_t& chunk) {
    chunk = next_chunk.load();
    while (chunk < limit) {
      if (next_chunk.compare_exchange_weak(chunk, chunk + 1)) return true;
    }
    return false;
  };

  try {
    for (std::size_t c = 0; c < chunk_count; ++c) {
      const std::size_t limit = std::min(chunk_count, c + stream.slot_count());
      std::size_t own = 0;
      while (!stream.poll_ready(c) && claim_below(limit, own)) run_chunk(own);
      if (!stream.wait_ready(c)) break;  // aborted: producer error pending
      consume(c, c % stream.slot_count());
      stream.release(c);
    }
  } catch (...) {
    stream.abort();
    driver.join();
    throw;
  }
  driver.join();
  {
    std::lock_guard lock(error_mutex);
    if (produce_error) std::rethrow_exception(produce_error);
  }
}

}  // namespace mpleo::util
