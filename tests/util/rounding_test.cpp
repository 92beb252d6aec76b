#include "util/rounding.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace mpleo::util {
namespace {

// Every kind of input the helpers' exactness argument covers: zeros,
// integers, the doubles one ulp either side of an integer, fractions of
// both signs and the edge of the fractional range (2^52).
std::vector<double> rounding_inputs() {
  const double two52 = std::ldexp(1.0, 52);
  std::vector<double> xs = {0.0,   -0.0,   0.5,    -0.5,   1.5,    -1.5,  -2.25,
                            -1e-300, 1e-300, 0.999, -0.999, two52,  -two52,
                            two52 - 0.5, -(two52 - 0.5), std::ldexp(1.0, 62),
                            -std::ldexp(1.0, 62)};
  for (const double k : {-1e6, -7.0, -2.0, -1.0, 1.0, 2.0, 7.0, 1e6, std::ldexp(1.0, 40),
                         -std::ldexp(1.0, 40), std::ldexp(1.0, 51), -std::ldexp(1.0, 51)}) {
    xs.push_back(k);
    xs.push_back(std::nextafter(k, std::numeric_limits<double>::infinity()));
    xs.push_back(std::nextafter(k, -std::numeric_limits<double>::infinity()));
  }
  for (const double k : {0.0, -0.0}) {
    xs.push_back(std::nextafter(k, 1.0));
    xs.push_back(std::nextafter(k, -1.0));
  }
  return xs;
}

TEST(IntegerRounding, FloorMatchesStdFloor) {
  for (const double x : rounding_inputs()) {
    EXPECT_EQ(static_cast<double>(floor_to_int64(x)), std::floor(x)) << "x = " << x;
  }
}

TEST(IntegerRounding, CeilMatchesStdCeil) {
  for (const double x : rounding_inputs()) {
    EXPECT_EQ(static_cast<double>(ceil_to_int64(x)), std::ceil(x)) << "x = " << x;
  }
}

TEST(IntegerRounding, ExactAtTheFractionalEdge) {
  // 2^52 - 0.5 is the largest double with a fractional part; the int64
  // results must not round through a double.
  const double edge = std::ldexp(1.0, 52) - 0.5;
  EXPECT_EQ(floor_to_int64(edge), (std::int64_t{1} << 52) - 1);
  EXPECT_EQ(ceil_to_int64(edge), std::int64_t{1} << 52);
  EXPECT_EQ(floor_to_int64(-edge), -(std::int64_t{1} << 52));
  EXPECT_EQ(ceil_to_int64(-edge), -(std::int64_t{1} << 52) + 1);
}

}  // namespace
}  // namespace mpleo::util
