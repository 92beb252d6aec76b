// PackedMasks word addressing across slab boundaries. Scheduler fleets in
// the other suites fit in one default 8 MB slab, and only mega-scale runs
// span several; the slab size here forces several slabs and a partial last
// one.
#include "coverage/packed_masks.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "coverage/step_mask.hpp"

namespace mpleo::cov {
namespace {

constexpr std::size_t kSteps = 150;  // 3 words, the last one partial
constexpr std::size_t kWords = (kSteps + 63) / 64;
constexpr std::size_t kMasks = 20;
// 20 words per slab: 6 masks each, so slabs of 6, 6, 6 and 2 masks.
constexpr std::size_t kSlabBytes = 20 * sizeof(std::uint64_t);

// The steps set in mask i; disjoint from those of masks i - 1 and i + 1.
StepMask pattern(std::size_t i) {
  StepMask m(kSteps);
  m.set(i % kSteps);
  m.set((7 * i + 3) % kSteps);
  return m;
}

// Every mask i holding pattern(i), written through the mutable words().
PackedMasks filled() {
  PackedMasks packed(kMasks, kSteps, kSlabBytes);
  for (std::size_t i = 0; i < kMasks; ++i) {
    const StepMask bits = pattern(i);
    const std::span<std::uint64_t> words = packed.words(i);
    for (std::size_t w = 0; w < kWords; ++w) words[w] |= bits.words()[w];
  }
  return packed;
}

std::vector<std::uint64_t> words_of(const PackedMasks& packed, std::size_t i) {
  const std::span<const std::uint64_t> words = packed.words(i);
  return {words.begin(), words.end()};
}

std::vector<std::uint64_t> words_of(const StepMask& mask) {
  return {mask.words().begin(), mask.words().end()};
}

TEST(PackedMasks, EveryMaskHasItsOwnWords) {
  const PackedMasks packed = filled();
  for (std::size_t i = 0; i < kMasks; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(packed.words(i).size(), kWords);
    EXPECT_EQ(words_of(packed, i), words_of(pattern(i)));
    for (const std::size_t j : {i - 1, i + 1}) {
      if (j >= kMasks) continue;  // i - 1 wraps below mask 0
      for (std::size_t w = 0; w < kWords; ++w) {
        EXPECT_EQ(packed.words(i)[w] & packed.words(j)[w], 0u) << "neighbour " << j;
      }
    }
  }
}

TEST(PackedMasks, SubtractClearsExactlyTheOtherMasksBits) {
  for (std::size_t i = 0; i < kMasks; ++i) {
    SCOPED_TRACE(i);
    PackedMasks packed = filled();
    // Clears one of mask i's two bits, plus a bit mask i never had.
    StepMask clear(kSteps);
    clear.set(i % kSteps);
    clear.set(kSteps - 1);
    packed.subtract(i, clear);

    StepMask expected = pattern(i);
    expected.subtract(clear);
    EXPECT_EQ(words_of(packed, i), words_of(expected));
    for (std::size_t j = 0; j < kMasks; ++j) {
      if (j != i) EXPECT_EQ(words_of(packed, j), words_of(pattern(j))) << "mask " << j;
    }
  }
}

}  // namespace
}  // namespace mpleo::cov
