// floor and ceil to a 64-bit integer without a libm call.
//
// On the baseline x86-64 target (no SSE4.1 roundsd) std::floor and
// std::ceil compile to calls into libm. These helpers truncate once toward
// zero and correct by one, which is exact wherever the truncation is
// defined: every double with |x| < 2^52 converts exactly, and every double
// with |x| >= 2^52 is already an integer.
//
// Input bound: x is finite and -2^63 < x < 2^63. Outside it the conversion
// is undefined behaviour (UBSan's float-cast-overflow reports it), so a
// caller clamps or states why its argument stays inside.
#pragma once

#include <cstdint>

namespace mpleo::util {

[[nodiscard]] constexpr std::int64_t floor_to_int64(double x) noexcept {
  const auto t = static_cast<std::int64_t>(x);
  return static_cast<double>(t) > x ? t - 1 : t;
}

[[nodiscard]] constexpr std::int64_t ceil_to_int64(double x) noexcept {
  const auto t = static_cast<std::int64_t>(x);
  return static_cast<double>(t) < x ? t + 1 : t;
}

}  // namespace mpleo::util
