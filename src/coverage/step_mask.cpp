#include "coverage/step_mask.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mpleo::cov {

StepMask::StepMask(std::size_t step_count)
    : steps_(step_count), words_((step_count + 63) / 64, 0) {}

void StepMask::set(std::size_t index) noexcept {
  assert(index < steps_);
  words_[index >> 6] |= (std::uint64_t{1} << (index & 63));
}

bool StepMask::test(std::size_t index) const noexcept {
  assert(index < steps_);
  return (words_[index >> 6] >> (index & 63)) & 1;
}

std::size_t StepMask::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

double StepMask::fraction() const noexcept {
  if (steps_ == 0) return 0.0;
  return static_cast<double>(count()) / static_cast<double>(steps_);
}

StepMask& StepMask::operator|=(const StepMask& other) noexcept {
  assert(steps_ == other.steps_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

StepMask& StepMask::operator&=(const StepMask& other) noexcept {
  assert(steps_ == other.steps_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

StepMask& StepMask::subtract(const StepMask& other) noexcept {
  assert(steps_ == other.steps_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

StepMask& StepMask::or_words(std::span<const std::uint32_t> word_index,
                             std::span<const std::uint64_t> word_bits) noexcept {
  assert(word_index.size() == word_bits.size());
  for (std::size_t k = 0; k < word_index.size(); ++k) {
    assert(word_index[k] < words_.size());
    words_[word_index[k]] |= word_bits[k];
  }
  return *this;
}

StepMask& StepMask::or_words_and_not(std::span<const std::uint32_t> word_index,
                                     std::span<const std::uint64_t> word_bits,
                                     const StepMask& clear) noexcept {
  assert(word_index.size() == word_bits.size());
  assert(steps_ == clear.steps_);
  for (std::size_t k = 0; k < word_index.size(); ++k) {
    const std::uint32_t w = word_index[k];
    assert(w < words_.size());
    words_[w] |= word_bits[k] & ~clear.words_[w];
  }
  return *this;
}

StepMask StepMask::operator&(const StepMask& other) const {
  StepMask out = *this;
  out &= other;
  return out;
}

std::size_t StepMask::longest_zero_run() const noexcept {
  std::size_t longest = 0;
  std::size_t current = 0;
  for (std::size_t i = 0; i < steps_; ++i) {
    if (test(i)) {
      current = 0;
    } else {
      ++current;
      longest = std::max(longest, current);
    }
  }
  return longest;
}

std::vector<Interval> StepMask::to_intervals(double step_seconds) const {
  std::vector<Interval> out;
  std::size_t run_start = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < steps_; ++i) {
    if (test(i) && !in_run) {
      in_run = true;
      run_start = i;
    } else if (!test(i) && in_run) {
      in_run = false;
      out.push_back({static_cast<double>(run_start) * step_seconds,
                     static_cast<double>(i) * step_seconds});
    }
  }
  if (in_run) {
    out.push_back({static_cast<double>(run_start) * step_seconds,
                   static_cast<double>(steps_) * step_seconds});
  }
  return out;
}

}  // namespace mpleo::cov
