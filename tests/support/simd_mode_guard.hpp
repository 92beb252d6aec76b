// Shared by the tests that force the SIMD dispatch mode.
#pragma once

#include "orbit/simd.hpp"

namespace mpleo::orbit {

// Restores the process-wide SIMD mode on scope exit; force_simd_mode is
// sticky, so every test that flips it must go through this guard.
class SimdModeGuard {
 public:
  SimdModeGuard() : prev_(active_simd_mode()) {}
  ~SimdModeGuard() { force_simd_mode(prev_); }
  SimdModeGuard(const SimdModeGuard&) = delete;
  SimdModeGuard& operator=(const SimdModeGuard&) = delete;

 private:
  SimdMode prev_;
};

}  // namespace mpleo::orbit
