// The paper's ground-site set: the 20 most populated cities limited to one
// per country, plus Melbourne for Australian-continent representation (§2,
// §3.2), and Taipei as the Fig-2 sovereign-coverage case study.
#pragma once

#include <string>
#include <vector>

#include "orbit/geodesy.hpp"

namespace mpleo::cov {

struct City {
  std::string name;
  std::string country;
  orbit::Geodetic location;
  double population = 0.0;  // metro population, used as the coverage weight
};

// The paper's 21-city list, largest metro (Tokyo) first. Stable ordering:
// experiments that "serve the first k cities" index this list directly.
[[nodiscard]] const std::vector<City>& paper_cities();

// Taipei, the Fig-2 receiver site.
[[nodiscard]] const City& taipei();

}  // namespace mpleo::cov
