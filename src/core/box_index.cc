#include "core/box_index.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/radix_sort.h"
#include "core/telemetry.h"

namespace sas {

Weight PositionBitmap::SumAndClear(const Sample& sample) {
  const auto& entries = sample.entries();
  const std::size_t words = (entries.size() + 63) / 64;
  assert(words <= words_.size());
  Weight total = 0.0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = words_[w];
    if (bits == 0) continue;
    words_[w] = 0;
    do {
      const std::size_t p =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      total += sample.AdjustedWeight(entries[p]);
      bits &= bits - 1;
    } while (bits != 0);
  }
  return total;
}

BoxIndex::BoxIndex(const Sample& sample) {
  static telemetry::Histogram* const build_ns =
      telemetry::GetHistogram("sas.query.index_build_ns");
  telemetry::Span span("query.index_build", build_ns);
  const auto& entries = sample.entries();
  const std::size_t n = entries.size();
  if (n == 0) return;
  xs_.resize(n);
  ys_.resize(n);
  pos_.resize(n);
  // ys_ holds the gathered x coordinates while the sort runs; the y
  // coordinates replace them once the order is known. The ping-pong
  // buffer is the only other allocation.
  for (std::size_t i = 0; i < n; ++i) ys_[i] = entries[i].pt.x;
  {
    std::vector<std::uint32_t> tmp_ord(n);
    std::vector<Coord> tmp_key(n);
    RadixSortAxis(ys_.data(), 1, 0, n, pos_.data(), xs_.data(),
                  tmp_ord.data(), tmp_key.data());
  }
  for (std::size_t r = 0; r < n; ++r) ys_[r] = entries[pos_[r]].pt.y;
}

void BoxIndex::XRange(const Box& box, std::size_t* begin,
                      std::size_t* end) const {
  const auto b = std::lower_bound(xs_.begin(), xs_.end(), box.x.lo);
  const auto e = std::lower_bound(b, xs_.end(), box.x.hi);
  *begin = static_cast<std::size_t>(b - xs_.begin());
  *end = static_cast<std::size_t>(e - xs_.begin());
}

Weight BoxIndex::Estimate(const Sample& sample, std::span<const Box> boxes,
                          PositionBitmap* bitmap) const {
  assert(sample.size() == size());
  bitmap->Reserve(size());
  for (const Box& box : boxes) {
    if (box.Empty()) continue;
    std::size_t b = 0;
    std::size_t e = 0;
    XRange(box, &b, &e);
    // y in [lo, hi) as one unsigned comparison (hi > lo: the box is not
    // empty).
    const Coord ylo = box.y.lo;
    const Coord yspan = box.y.hi - box.y.lo;
    for (std::size_t r = b; r < e; ++r) {
      bitmap->MarkIf(pos_[r], ys_[r] - ylo < yspan);
    }
  }
  return bitmap->SumAndClear(sample);
}

std::size_t BoxIndex::CountInBox(const Box& box) const {
  if (box.Empty()) return 0;
  std::size_t b = 0;
  std::size_t e = 0;
  XRange(box, &b, &e);
  const Coord ylo = box.y.lo;
  const Coord yspan = box.y.hi - box.y.lo;
  std::size_t count = 0;
  for (std::size_t r = b; r < e; ++r) {
    count += static_cast<std::size_t>(ys_[r] - ylo < yspan);
  }
  return count;
}

}  // namespace sas
