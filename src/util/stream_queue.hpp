// Bounded-queue chunk streaming between a parallel producer stage and a
// sequential, in-order consumer stage.
//
// The pipelined scheduler's phase 1 builds per-chunk candidate lists in
// parallel and phase 2 must consume them strictly in step order. Filling
// every chunk before draining any (fill-then-drain) makes peak memory
// proportional to the whole horizon; ChunkStream instead recycles a fixed
// ring of S slots: chunk c may only be produced into slot c % S once the
// consumer has released chunk c - S, so at most S chunks of output exist at
// any moment and phase 2 starts the instant chunk 0 lands. Output is
// bit-identical to fill-then-drain because the consumer still sees chunks
// 0, 1, 2, ... in order — only the interleaving of work changes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace mpleo::util {

class ThreadPool;

// Thrown out of begin_produce when the stream has been aborted (some other
// producer or the consumer failed). Producers let it propagate; the driver
// swallows it so the first real error is what reaches the caller.
struct ChunkStreamAborted : std::runtime_error {
  ChunkStreamAborted() : std::runtime_error("chunk stream aborted") {}
};

class ChunkStream {
 public:
  // `slot_count` is clamped to [1, chunk_count].
  ChunkStream(std::size_t chunk_count, std::size_t slot_count);

  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunk_count_; }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  // Producer side: blocks until slot (chunk % slot_count) is free for this
  // chunk (i.e. the consumer has released chunk - slot_count), returning the
  // slot index. Throws ChunkStreamAborted if abort() lands first.
  [[nodiscard]] std::size_t begin_produce(std::size_t chunk);
  // Marks the chunk's output complete; wakes the consumer if it is waiting.
  void publish(std::size_t chunk);

  // Consumer side: blocks until `chunk` has been published. Returns false if
  // the stream aborted instead (the chunk may never arrive).
  [[nodiscard]] bool wait_ready(std::size_t chunk);
  // Non-blocking: true when wait_ready(chunk) would return at once, i.e. the
  // chunk is published or the stream aborted.
  [[nodiscard]] bool poll_ready(std::size_t chunk);
  // Frees the chunk's slot for chunk + slot_count; call after consuming.
  void release(std::size_t chunk);

  // Fails the stream: every blocked or future begin_produce throws
  // ChunkStreamAborted and wait_ready returns false. Idempotent.
  void abort();

 private:
  const std::size_t chunk_count_;
  const std::size_t slot_count_;
  std::mutex mutex_;
  std::condition_variable slot_free_;   // producers wait for their turn
  std::condition_variable published_cv_;  // consumer waits for its chunk
  // produce_turn_[s] is the next chunk allowed to occupy slot s (starts at
  // s, advances by slot_count on release). published_[s] flags the slot's
  // current chunk as complete.
  std::vector<std::size_t> produce_turn_;
  std::vector<char> published_;
  bool aborted_ = false;
};

// Runs `produce(chunk, slot)` for every chunk in [0, chunk_count) across the
// pool (inline when `pool` is null) while this thread consumes
// `consume(chunk, slot)` strictly in chunk order, with at most `slot_count`
// chunks in flight. Pool lanes claim chunks one at a time in ascending
// order. Before it blocks on chunk c, this thread claims the lowest
// unclaimed chunk below c + slot_count (its slot is already free) and
// produces it itself, so min(slot_count, pool lanes + 1) producers can run
// at once. Exceptions from either side abort the stream and the first
// producer error (or the consumer's) is rethrown here after all workers
// drain. Returns once every chunk is consumed.
void stream_chunks(ThreadPool* pool, std::size_t chunk_count,
                   std::size_t slot_count,
                   const std::function<void(std::size_t, std::size_t)>& produce,
                   const std::function<void(std::size_t, std::size_t)>& consume);

}  // namespace mpleo::util
