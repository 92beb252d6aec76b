// Slab-chunked storage for large families of fixed-width step masks.
//
// The pipelined scheduler keeps one visibility mask per (satellite, site)
// pair; at mega-constellation scale that is tens of millions of masks, and a
// vector<StepMask> spends more memory on per-mask vector headers and
// allocator metadata than on bits. PackedMasks lays the same words out as a
// small list of fixed-size slabs (so no single allocation needs gigabytes of
// contiguous address space, and slabs release back to the OS independently),
// with each mask fully inside one slab for branch-free word addressing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coverage/step_mask.hpp"

namespace mpleo::cov {

class PackedMasks {
 public:
  PackedMasks() = default;

  // `mask_count` masks of `step_count` bits each, all zero. Slabs are
  // ~`slab_bytes` (rounded so masks never straddle a slab boundary).
  PackedMasks(std::size_t mask_count, std::size_t step_count,
              std::size_t slab_bytes = std::size_t{8} << 20);

  // The 64-step words of mask i, low bit = lowest step — same layout as
  // StepMask::words(). The mutable span is how producers fill bits (the
  // culler's word-span fill).
  [[nodiscard]] std::span<std::uint64_t> words(std::size_t i) noexcept {
    return {slabs_[i / masks_per_slab_].data() +
                (i % masks_per_slab_) * words_per_mask_,
            words_per_mask_};
  }
  [[nodiscard]] std::span<const std::uint64_t> words(std::size_t i) const noexcept {
    return {slabs_[i / masks_per_slab_].data() +
                (i % masks_per_slab_) * words_per_mask_,
            words_per_mask_};
  }

  // mask[i] &= ~other (and-not), the outage-subtraction primitive.
  // Precondition: other.step_count() is the masks' step count.
  void subtract(std::size_t i, const StepMask& other) noexcept;

 private:
  std::size_t words_per_mask_ = 0;
  std::size_t masks_per_slab_ = 1;
  std::vector<std::vector<std::uint64_t>> slabs_;
};

}  // namespace mpleo::cov
