#include "orbit/simd.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

namespace mpleo::orbit {
namespace {

// Set once by the first active_simd_mode() call or by force_simd_mode;
// dispatch afterwards is a plain load. Not atomic: resolution happens before
// any parallel fill starts (the EphemerisFill constructor resolves it on the
// calling thread), and force_simd_mode is a test-only hook.
std::optional<SimdMode> g_mode;

SimdMode resolve_from_environment() {
  const char* env = std::getenv("MPLEO_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || *env == '\0') {
    return cpu_supports_avx2() ? SimdMode::kAvx2 : SimdMode::kScalar;
  }
  if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0) {
    return SimdMode::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) {
    if (!cpu_supports_avx2()) {
      throw std::runtime_error(
          "MPLEO_SIMD=avx2 requested but this build/CPU has no AVX2 support");
    }
    return SimdMode::kAvx2;
  }
  throw std::runtime_error("invalid MPLEO_SIMD value '" + std::string(env) +
                           "' (valid: auto, scalar, off, avx2)");
}

}  // namespace

const char* to_string(SimdMode mode) noexcept {
  switch (mode) {
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kAvx2: return "avx2";
  }
  return "unknown";
}

bool cpu_supports_avx2() noexcept {
#if defined(MPLEO_HAVE_AVX2_KERNEL) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdMode active_simd_mode() {
  if (!g_mode.has_value()) g_mode = resolve_from_environment();
  return *g_mode;
}

void force_simd_mode(SimdMode mode) {
  if (mode == SimdMode::kAvx2 && !cpu_supports_avx2()) {
    throw std::invalid_argument(
        "force_simd_mode(kAvx2): this build/CPU has no AVX2 support");
  }
  g_mode = mode;
}

}  // namespace mpleo::orbit
