// ChunkStream / stream_chunks: the bounded-queue pipeline under the
// mega-scale scheduler. The contracts that keep streamed scheduling
// bit-identical to fill-then-drain: consumption is strictly in chunk order,
// at most slot_count chunks are ever in flight, serial and pooled execution
// produce the same outputs, the consuming thread produces while it waits,
// and errors on either side abort the stream without deadlocking it.
#include "util/stream_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mpleo::util {
namespace {

TEST(StreamChunks, ConsumesEveryChunkStrictlyInOrder) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    constexpr std::size_t kChunks = 97;
    constexpr std::size_t kSlots = 3;
    std::vector<std::size_t> slot_payload(kSlots, 0);
    std::vector<std::size_t> consumed;
    consumed.reserve(kChunks);
    stream_chunks(
        handle, kChunks, kSlots,
        [&](std::size_t chunk, std::size_t slot) {
          // Pooled runs cycle the slot ring; the serial path degenerates to
          // produce-then-consume in slot 0. Either way slots stay in range.
          ASSERT_LT(slot, kSlots);
          slot_payload[slot] = chunk * chunk + 1;
        },
        [&](std::size_t chunk, std::size_t slot) {
          ASSERT_LT(slot, kSlots);
          // The producer's payload for exactly this chunk must be in the
          // slot — the slot cannot have been recycled early.
          ASSERT_EQ(slot_payload[slot], chunk * chunk + 1);
          consumed.push_back(chunk);
        });
    std::vector<std::size_t> expected(kChunks);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(consumed, expected)
        << "threads=" << (handle == nullptr ? 1 : handle->thread_count());
  }
}

TEST(StreamChunks, NeverExceedsSlotCountInFlight) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kSlots = 2;
  std::atomic<long> in_flight{0};
  std::atomic<long> peak{0};
  stream_chunks(
      &pool, kChunks, kSlots,
      [&](std::size_t, std::size_t) {
        const long now = in_flight.fetch_add(1) + 1;
        long prev = peak.load();
        while (prev < now && !peak.compare_exchange_weak(prev, now)) {
        }
      },
      [&](std::size_t, std::size_t) { in_flight.fetch_sub(1); });
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LE(peak.load(), static_cast<long>(kSlots));
  EXPECT_GE(peak.load(), 1);
}

TEST(StreamChunks, RunsMinOfSlotsAndLanesProducersAtOnce) {
  // With S slots and a P-lane pool, min(S, P) producers must be able to run
  // at once, and never more than S. A latch with a timeout holds the first
  // producers until min(S, P) of them are inside produce() together; a
  // stream that cannot get there times out instead of hanging, and the peak
  // shows how far short it fell. Many chunks per lane, so a lane handed a run
  // of consecutive chunks would park on a slot that only its own earlier
  // chunks can free.
  struct Shape {
    std::size_t slots;
    std::size_t lanes;
  };
  for (const Shape shape : {Shape{2, 4}, Shape{3, 3}, Shape{4, 2}, Shape{3, 4}}) {
    ThreadPool pool(shape.lanes);
    const std::size_t target = std::min(shape.slots, shape.lanes);
    std::mutex mutex;
    std::condition_variable arrived;
    std::size_t in_flight = 0;
    std::size_t peak = 0;
    bool open = false;  // the latch: target reached, or timed out
    stream_chunks(
        &pool, 256, shape.slots,
        [&](std::size_t, std::size_t) {
          std::unique_lock lock(mutex);
          peak = std::max(peak, ++in_flight);
          if (in_flight >= target) open = true;
          arrived.notify_all();
          if (!arrived.wait_for(lock, std::chrono::seconds(10), [&] { return open; })) {
            open = true;
          }
          --in_flight;
        },
        [](std::size_t, std::size_t) {});
    EXPECT_GE(peak, target) << "slots=" << shape.slots << " lanes=" << shape.lanes;
    EXPECT_LE(peak, shape.slots) << "slots=" << shape.slots << " lanes=" << shape.lanes;
  }
}

TEST(StreamChunks, ConsumerProducesWhileItWaits) {
  // The consuming thread produces too while its next chunk is not ready, so
  // with 4 slots a 2-lane pool gets 3 producers at once: the two lanes and
  // the consuming thread. Same latch as RunsMinOfSlotsAndLanesProducersAtOnce;
  // a stream whose consumer only waits peaks at 2 and times out.
  ThreadPool pool(2);
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kTarget = 3;
  std::mutex mutex;
  std::condition_variable arrived;
  std::size_t in_flight = 0;
  std::size_t peak = 0;
  bool open = false;
  stream_chunks(
      &pool, 256, kSlots,
      [&](std::size_t, std::size_t) {
        std::unique_lock lock(mutex);
        peak = std::max(peak, ++in_flight);
        if (in_flight >= kTarget) open = true;
        arrived.notify_all();
        if (!arrived.wait_for(lock, std::chrono::seconds(10), [&] { return open; })) {
          open = true;
        }
        --in_flight;
      },
      [](std::size_t, std::size_t) {});
  EXPECT_GE(peak, kTarget);
  EXPECT_LE(peak, kSlots);
}

TEST(StreamChunks, SerialAndPooledRunsProduceIdenticalResults) {
  constexpr std::size_t kChunks = 41;
  const auto run = [&](ThreadPool* pool, std::size_t slots) {
    std::vector<std::size_t> scratch(slots, 0);
    std::vector<std::size_t> out;
    out.reserve(kChunks);
    stream_chunks(
        pool, kChunks, slots,
        [&](std::size_t chunk, std::size_t slot) { scratch[slot] = 3 * chunk + 7; },
        [&](std::size_t chunk, std::size_t slot) {
          (void)chunk;
          out.push_back(scratch[slot]);
        });
    return out;
  };
  const std::vector<std::size_t> serial = run(nullptr, 1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  EXPECT_EQ(run(&pool2, 2), serial);
  EXPECT_EQ(run(&pool4, 3), serial);
  EXPECT_EQ(run(&pool4, 8), serial);
}

TEST(StreamChunks, ProducerErrorPropagatesWithoutDeadlock) {
  ThreadPool pool(3);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(
        stream_chunks(
            handle, 32, 2,
            [&](std::size_t chunk, std::size_t) {
              if (chunk == 5) throw std::runtime_error("producer boom");
            },
            [&](std::size_t, std::size_t) {}),
        std::runtime_error);
  }
}

TEST(StreamChunks, ProducerThrowAgainstBlockedSlotRingDoesNotDeadlock) {
  // The nasty variant: a slow consumer keeps the bounded slot ring full, so
  // producers are blocked in begin_produce() when one of them throws. The
  // stream must abort (waking the blocked producers), rethrow exactly the
  // first producer's error, and leave the pool reusable for a fresh stream.
  ThreadPool pool(3);
  std::atomic<int> consumed{0};
  try {
    stream_chunks(
        &pool, 64, 2,
        [&](std::size_t chunk, std::size_t) {
          if (chunk == 7) throw std::runtime_error("late producer boom");
        },
        [&](std::size_t, std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          ++consumed;
        });
    FAIL() << "producer error did not propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "late producer boom");
  }
  EXPECT_LT(consumed.load(), 64);
  int after = 0;
  stream_chunks(
      &pool, 8, 2, [](std::size_t, std::size_t) {},
      [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after, 8);
}

TEST(StreamChunks, ConsumerProduceErrorIsRethrown) {
  // A chunk the consuming thread produces can throw like a lane's: the
  // stream aborts, the error surfaces from stream_chunks, and no lane is
  // left blocked. Lanes hold their chunks until the consuming thread has
  // entered produce() (or a timeout), so it is the one that throws.
  ThreadPool pool(2);
  const std::thread::id consumer = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable entered;
  bool consumer_entered = false;
  bool timed_out = false;
  try {
    stream_chunks(
        &pool, 64, 4,
        [&](std::size_t, std::size_t) {
          std::unique_lock lock(mutex);
          if (std::this_thread::get_id() == consumer) {
            consumer_entered = true;
            entered.notify_all();
            throw std::runtime_error("consumer-side produce boom");
          }
          if (!entered.wait_for(lock, std::chrono::seconds(10),
                                [&] { return consumer_entered || timed_out; })) {
            timed_out = true;
          }
        },
        [](std::size_t, std::size_t) {});
    FAIL() << "the consuming thread's produce error did not propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "consumer-side produce boom");
  }
  EXPECT_FALSE(timed_out);
  int after = 0;
  stream_chunks(
      &pool, 8, 4, [](std::size_t, std::size_t) {},
      [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after, 8);
}

TEST(StreamChunks, ConsumerErrorPropagatesWithoutDeadlock) {
  ThreadPool pool(3);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(
        stream_chunks(
            handle, 32, 2, [&](std::size_t, std::size_t) {},
            [&](std::size_t chunk, std::size_t) {
              if (chunk == 3) throw std::runtime_error("consumer boom");
            }),
        std::runtime_error);
  }
}

TEST(StreamChunks, HandlesDegenerateShapes) {
  // Zero chunks: nothing runs, no hang.
  stream_chunks(
      nullptr, 0, 4, [&](std::size_t, std::size_t) { FAIL(); },
      [&](std::size_t, std::size_t) { FAIL(); });
  // One chunk, oversized slot request (clamped to chunk count).
  int produced = 0;
  int consumed = 0;
  stream_chunks(
      nullptr, 1, 100, [&](std::size_t, std::size_t) { ++produced; },
      [&](std::size_t, std::size_t) { ++consumed; });
  EXPECT_EQ(produced, 1);
  EXPECT_EQ(consumed, 1);
}

TEST(ChunkStream, AbortWakesBothSides) {
  ChunkStream stream(8, 2);
  stream.abort();
  EXPECT_THROW((void)stream.begin_produce(0), ChunkStreamAborted);
  EXPECT_FALSE(stream.wait_ready(0));
  EXPECT_TRUE(stream.poll_ready(0));
}

TEST(ChunkStream, PollReadyIsTrueOnceTheChunkIsPublished) {
  ChunkStream stream(8, 2);
  EXPECT_FALSE(stream.poll_ready(0));
  EXPECT_EQ(stream.begin_produce(0), 0u);
  EXPECT_FALSE(stream.poll_ready(0));
  stream.publish(0);
  EXPECT_TRUE(stream.poll_ready(0));
  EXPECT_TRUE(stream.wait_ready(0));
  stream.release(0);
  // Chunk 2 reuses slot 0 and is not published yet.
  EXPECT_FALSE(stream.poll_ready(2));
}

}  // namespace
}  // namespace mpleo::util
