#include "coverage/cities.hpp"

namespace mpleo::cov {
namespace {

std::vector<City> make_paper_cities() {
  using orbit::Geodetic;
  // UN World Urbanization Prospects metro populations (millions), one city
  // per country, descending; Melbourne appended for Australia.
  return {
      {"Tokyo", "Japan", Geodetic::from_degrees(35.6762, 139.6503), 37.4e6},
      {"Delhi", "India", Geodetic::from_degrees(28.7041, 77.1025), 31.0e6},
      {"Shanghai", "China", Geodetic::from_degrees(31.2304, 121.4737), 27.8e6},
      {"Sao Paulo", "Brazil", Geodetic::from_degrees(-23.5505, -46.6333), 22.4e6},
      {"Mexico City", "Mexico", Geodetic::from_degrees(19.4326, -99.1332), 21.9e6},
      {"Cairo", "Egypt", Geodetic::from_degrees(30.0444, 31.2357), 21.3e6},
      {"Dhaka", "Bangladesh", Geodetic::from_degrees(23.8103, 90.4125), 21.0e6},
      {"New York", "United States", Geodetic::from_degrees(40.7128, -74.0060), 18.8e6},
      {"Karachi", "Pakistan", Geodetic::from_degrees(24.8607, 67.0011), 16.4e6},
      {"Istanbul", "Turkey", Geodetic::from_degrees(41.0082, 28.9784), 15.4e6},
      {"Buenos Aires", "Argentina", Geodetic::from_degrees(-34.6037, -58.3816), 15.2e6},
      {"Manila", "Philippines", Geodetic::from_degrees(14.5995, 120.9842), 14.2e6},
      {"Lagos", "Nigeria", Geodetic::from_degrees(6.5244, 3.3792), 14.9e6},
      {"Kinshasa", "DR Congo", Geodetic::from_degrees(-4.4419, 15.2663), 14.3e6},
      {"Moscow", "Russia", Geodetic::from_degrees(55.7558, 37.6173), 12.5e6},
      {"Bangkok", "Thailand", Geodetic::from_degrees(13.7563, 100.5018), 10.7e6},
      {"Seoul", "South Korea", Geodetic::from_degrees(37.5665, 126.9780), 9.9e6},
      {"London", "United Kingdom", Geodetic::from_degrees(51.5074, -0.1278), 9.4e6},
      {"Lima", "Peru", Geodetic::from_degrees(-12.0464, -77.0428), 10.9e6},
      {"Tehran", "Iran", Geodetic::from_degrees(35.6892, 51.3890), 9.3e6},
      {"Melbourne", "Australia", Geodetic::from_degrees(-37.8136, 144.9631), 5.1e6},
  };
}

}  // namespace

const std::vector<City>& paper_cities() {
  static const std::vector<City> cities = make_paper_cities();
  return cities;
}

const City& taipei() {
  static const City city{"Taipei", "Taiwan", orbit::Geodetic::from_degrees(25.0330, 121.5654),
                         7.0e6};
  return city;
}

}  // namespace mpleo::cov
