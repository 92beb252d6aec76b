#include "coverage/packed_masks.hpp"

#include <algorithm>

namespace mpleo::cov {

PackedMasks::PackedMasks(std::size_t mask_count, std::size_t step_count,
                         std::size_t slab_bytes)
    : words_per_mask_((step_count + 63) / 64) {
  if (mask_count == 0 || words_per_mask_ == 0) {
    words_per_mask_ = std::max<std::size_t>(words_per_mask_, 1);
    return;
  }
  const std::size_t slab_words = std::max<std::size_t>(slab_bytes / 8, 1);
  masks_per_slab_ = std::max<std::size_t>(slab_words / words_per_mask_, 1);
  masks_per_slab_ = std::min(masks_per_slab_, mask_count);
  const std::size_t slab_count = (mask_count + masks_per_slab_ - 1) / masks_per_slab_;
  slabs_.resize(slab_count);
  for (std::size_t s = 0; s < slab_count; ++s) {
    const std::size_t masks_here =
        std::min(masks_per_slab_, mask_count - s * masks_per_slab_);
    slabs_[s].assign(masks_here * words_per_mask_, 0);
  }
}

void PackedMasks::subtract(std::size_t i, const StepMask& other) noexcept {
  const std::span<std::uint64_t> mine = words(i);
  const std::span<const std::uint64_t> theirs = other.words();
  const std::size_t n = std::min(mine.size(), theirs.size());
  for (std::size_t w = 0; w < n; ++w) mine[w] &= ~theirs[w];
}

}  // namespace mpleo::cov
