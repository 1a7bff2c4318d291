// Seed-count control for the property-test harnesses.
//
// ctest stays deterministic: with PROPERTY_TEST_SEEDS unset, every
// property suite instantiates a fixed seed range and gtest_discover_tests
// registers exactly those names. Setting PROPERTY_TEST_SEEDS=N and running
// the test binary directly widens the sweep, as CI's Release legs do after
// ctest:
//
//   PROPERTY_TEST_SEEDS=200 ./build/tests/flstore_tests
//       --gtest_filter='Seeds/*'
#pragma once

#include <cstdlib>

namespace flstore::testing {

inline int property_test_seeds(int fixed_default = 10) {
  const char* env = std::getenv("PROPERTY_TEST_SEEDS");
  if (env == nullptr) return fixed_default;
  const int n = std::atoi(env);
  return n > 0 ? n : fixed_default;
}

}  // namespace flstore::testing
