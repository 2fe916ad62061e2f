#include "core/radix_sort.h"

#include <cassert>
#include <utility>

namespace sas {

void RadixSortAxis(const Coord* coords, std::size_t dims, std::size_t axis,
                   std::size_t n, std::uint32_t* ord, Coord* key,
                   std::uint32_t* tmp_ord, Coord* tmp_key) {
  assert(n >= 1);
  Coord varying = 0;
  const Coord first = coords[axis];
  for (std::size_t i = 0; i < n; ++i) {
    varying |= coords[i * dims + axis] ^ first;
  }
  int passes[8];
  int num_passes = 0;
  for (int b = 0; b < 8; ++b) {
    if (((varying >> (8 * b)) & 0xFF) != 0) passes[num_passes++] = b;
  }

  // Start in whichever buffer makes the last pass land in (ord, key).
  const bool odd = num_passes % 2 == 1;
  std::uint32_t* src_ord = odd ? tmp_ord : ord;
  Coord* src_key = odd ? tmp_key : key;
  std::uint32_t* dst_ord = odd ? ord : tmp_ord;
  Coord* dst_key = odd ? key : tmp_key;
  std::uint32_t count[8][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const Coord c = coords[i * dims + axis];
    src_ord[i] = static_cast<std::uint32_t>(i);
    src_key[i] = c;
    for (int p = 0; p < num_passes; ++p) {
      ++count[p][(c >> (8 * passes[p])) & 0xFF];
    }
  }
  for (int p = 0; p < num_passes; ++p) {
    std::uint32_t offset[256];
    std::uint32_t run = 0;
    for (int d = 0; d < 256; ++d) {
      offset[d] = run;
      run += count[p][d];
    }
    const int shift = 8 * passes[p];
    for (std::size_t i = 0; i < n; ++i) {
      const Coord c = src_key[i];
      const std::uint32_t at = offset[(c >> shift) & 0xFF]++;
      dst_key[at] = c;
      dst_ord[at] = src_ord[i];
    }
    std::swap(src_ord, dst_ord);
    std::swap(src_key, dst_key);
  }
  assert(src_ord == ord && src_key == key);
}

}  // namespace sas
