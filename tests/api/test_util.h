// Shared helpers for the api test suites.

#ifndef SAS_TESTS_API_TEST_UTIL_H_
#define SAS_TESTS_API_TEST_UTIL_H_

#include <filesystem>
#include <set>
#include <system_error>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace sas::test {

/// n distinct 2-D points with Pareto(1.3) weights and sequential key ids.
inline std::vector<WeightedKey> RandomItems(std::size_t n, Coord domain,
                                            Rng* rng) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng->NextPareto(1.3), {x, y}});
  }
  return items;
}

/// The number of threads of this process (entries of /proc/self/task), or
/// -1 where that directory does not exist.
inline int ThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) ++n;
  return n;
}

}  // namespace sas::test

#endif  // SAS_TESTS_API_TEST_UTIL_H_
