// Order structures (Section 3): keys with a linear order whose range family
// is the set of all intervals (and, as a special case, all prefixes).

#ifndef SAS_STRUCTURE_ORDER_H_
#define SAS_STRUCTURE_ORDER_H_

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace sas {

/// Returns key indices 0..n-1 sorted by coordinate (stable; ties keep input
/// order, so duplicate coordinates are handled deterministically).
std::vector<std::size_t> SortedOrder(const std::vector<Coord>& coords);

/// Permutes `values` into the order given by `order` (out-of-place).
template <typename T>
std::vector<T> ApplyOrder(const std::vector<std::size_t>& order,
                          const std::vector<T>& values) {
  std::vector<T> out;
  out.reserve(order.size());
  for (std::size_t i : order) out.push_back(values[i]);
  return out;
}

/// All intervals [i, j) over n positions — the order structure's range
/// family, enumerated for small-n exhaustive tests. O(n^2) ranges.
std::vector<std::pair<std::size_t, std::size_t>> AllIntervals(std::size_t n);

}  // namespace sas

#endif  // SAS_STRUCTURE_ORDER_H_
