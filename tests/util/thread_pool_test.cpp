#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace mpleo::util {
namespace {

TEST(ThreadPool, ReportsAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  ThreadPool solo(1);
  EXPECT_EQ(solo.thread_count(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t count = 10'000;
  std::vector<std::atomic<int>> visits(count);
  pool.parallel_for(count, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForChunksCoversRangeWithoutOverlap) {
  ThreadPool pool(3);
  const std::size_t count = 4'097;
  std::vector<std::atomic<int>> visits(count);
  pool.parallel_for_chunks(count, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    ASSERT_LE(end, count);
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool solo(1);
  std::vector<int> order;
  solo.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  const std::vector<int> expected{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Re-entering the same pool from a worker must not deadlock; the nested
    // loop simply runs on the calling thread.
    pool.parallel_for(10, [&](std::size_t j) { total.fetch_add(j); });
  });
  EXPECT_EQ(total.load(), 8u * 45u);
}

}  // namespace
}  // namespace mpleo::util
