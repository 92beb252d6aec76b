// A per-step boolean timeline over a TimeGrid, packed 64 steps per word.
//
// Monte-Carlo coverage experiments union thousands of per-satellite
// visibility timelines; with masks that union is a word-wide OR, making a
// 100-run sampling experiment over a 1-week grid essentially free once the
// per-satellite masks exist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mpleo::cov {

// A half-open time interval [start, end), seconds on an experiment-local axis.
struct Interval {
  double start = 0.0;
  double end = 0.0;  // exclusive

  [[nodiscard]] double length() const noexcept { return end - start; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

class StepMask {
 public:
  StepMask() = default;
  explicit StepMask(std::size_t step_count);

  [[nodiscard]] std::size_t step_count() const noexcept { return steps_; }

  void set(std::size_t index) noexcept;
  [[nodiscard]] bool test(std::size_t index) const noexcept;

  // Number of set steps.
  [[nodiscard]] std::size_t count() const noexcept;
  // Fraction of steps set, in [0, 1]; 0 for an empty mask.
  [[nodiscard]] double fraction() const noexcept;

  // In-place bitwise ops. Preconditions: same step_count.
  StepMask& operator|=(const StepMask& other) noexcept;
  StepMask& operator&=(const StepMask& other) noexcept;
  // Clears in *this every step set in `other` (and-not).
  StepMask& subtract(const StepMask& other) noexcept;

  // Sparse OR: words()[word_index[k]] |= word_bits[k] for every k.
  // Preconditions: equal lengths, every index < words().size(), and no bit
  // at or beyond step_count() set — a mask's own nonzero words (as
  // VisibilityCache stores them) satisfy all three.
  StepMask& or_words(std::span<const std::uint32_t> word_index,
                     std::span<const std::uint64_t> word_bits) noexcept;
  // Sparse OR of the sparse mask minus `clear`: word |= bits & ~clear.word,
  // the same bits as copying the sparse mask, subtracting `clear` and OR-ing
  // the result. Same preconditions, plus `clear` has this step_count.
  StepMask& or_words_and_not(std::span<const std::uint32_t> word_index,
                             std::span<const std::uint64_t> word_bits,
                             const StepMask& clear) noexcept;

  [[nodiscard]] StepMask operator&(const StepMask& other) const;

  // Longest run of consecutive unset steps.
  [[nodiscard]] std::size_t longest_zero_run() const noexcept;

  // Raw 64-step words, low bit = lowest step index; bits at or beyond
  // step_count() are always zero. Word-at-a-time consumers (the pipelined
  // scheduler's candidate walk) use this to skip empty 64-step chunks with
  // one load instead of 64 tests.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  // The runs of set steps as intervals on [0, step_count*step_seconds),
  // ascending and disjoint: one per pass.
  [[nodiscard]] std::vector<Interval> to_intervals(double step_seconds) const;

  friend bool operator==(const StepMask&, const StepMask&) = default;

 private:
  std::size_t steps_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace mpleo::cov
