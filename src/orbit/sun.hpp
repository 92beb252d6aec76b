// Low-precision solar ephemeris and Earth-shadow (eclipse) tests.
//
// Needed by the power model: a LEO satellite spends ~35% of each orbit in
// Earth's shadow, which bounds how much spare capacity it can actually sell
// (§3.2 financial viability meets physics). Accuracy ~0.01 deg (Astronomical
// Almanac low-precision formula) — far beyond what eclipse timing needs.
#pragma once

#include "orbit/time.hpp"
#include "util/vec3.hpp"

namespace mpleo::orbit {

// Unit vector from Earth's centre toward the Sun, in the ECI frame.
[[nodiscard]] util::Vec3 sun_direction_eci(const TimePoint& t) noexcept;

// True when a satellite at `position_eci` (metres) is inside Earth's
// cylindrical umbra for the given sun direction.
[[nodiscard]] bool is_eclipsed(const util::Vec3& position_eci,
                               const util::Vec3& sun_direction) noexcept;

}  // namespace mpleo::orbit
