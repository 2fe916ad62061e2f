#include "structure/order.h"

#include <algorithm>
#include <numeric>

namespace sas {

std::vector<std::size_t> SortedOrder(const std::vector<Coord>& coords) {
  std::vector<std::size_t> order(coords.size());
  std::iota(order.begin(), order.end(), 0);
  // Index tie-break == stability when sorting distinct indices.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return coords[a] != coords[b] ? coords[a] < coords[b] : a < b;
  });
  return order;
}

std::vector<std::pair<std::size_t, std::size_t>> AllIntervals(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(n * (n + 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j <= n; ++j) out.emplace_back(i, j);
  }
  return out;
}

}  // namespace sas
