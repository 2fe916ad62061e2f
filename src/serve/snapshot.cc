#include "serve/snapshot.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace sas {

namespace {

/// Entry positions sorted by (id, position). The secondary position key
/// makes the order total and deterministic under duplicate ids (merged
/// windows can legitimately carry one id twice).
std::vector<std::uint32_t> PositionsById(
    const std::vector<WeightedKey>& entries) {
  std::vector<std::uint32_t> pos(entries.size());
  std::iota(pos.begin(), pos.end(), 0u);
  std::sort(pos.begin(), pos.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (entries[a].id != entries[b].id) return entries[a].id < entries[b].id;
    return a < b;
  });
  return pos;
}

}  // namespace

ServingSnapshot::ServingSnapshot(const Sample& sample)
    : sample_(sample), box_index_(sample_) {
  const auto& entries = sample_.entries();
  const std::size_t n = entries.size();

  total_weight_ = sample_.EstimateTotal();

  by_id_ = PositionsById(entries);
  id_keys_.resize(n);
  for (std::size_t r = 0; r < n; ++r) id_keys_[r] = entries[by_id_[r]].id;

  // Vose alias table over the adjusted weights. Scaled so column c carries
  // adjusted(c) * n / total; columns below 1 are topped up by columns above
  // 1. A zero-total sample (possible only when tau and every weight are 0)
  // degenerates to a uniform table.
  if (n > 0) {
    accept_.assign(n, 1.0);
    alias_.resize(n);
    std::iota(alias_.begin(), alias_.end(), 0u);
    if (total_weight_ > 0.0) {
      std::vector<double> scaled(n);
      for (std::size_t p = 0; p < n; ++p) {
        scaled[p] = AdjustedAt(static_cast<std::uint32_t>(p)) *
                    static_cast<double>(n) / total_weight_;
      }
      std::vector<std::uint32_t> small;
      std::vector<std::uint32_t> large;
      for (std::size_t p = 0; p < n; ++p) {
        (scaled[p] < 1.0 ? small : large).push_back(
            static_cast<std::uint32_t>(p));
      }
      while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        const std::uint32_t l = large.back();
        small.pop_back();
        accept_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
          large.pop_back();
          small.push_back(l);
        }
      }
      // Residual columns sit at (numerically) exactly 1: they keep
      // accept = 1 / alias = self from the initialization above.
    }
  }
}

Weight ServingSnapshot::EstimateIdRange(KeyId lo, KeyId hi,
                                        QueryScratch* scratch) const {
  PositionBitmap& bitmap = scratch->bitmap;
  bitmap.Reserve(size());
  if (lo < hi) {
    const auto b = std::lower_bound(id_keys_.begin(), id_keys_.end(), lo);
    const auto e = std::lower_bound(b, id_keys_.end(), hi);
    const auto first = static_cast<std::size_t>(b - id_keys_.begin());
    const auto last = static_cast<std::size_t>(e - id_keys_.begin());
    for (std::size_t r = first; r < last; ++r) bitmap.MarkIf(by_id_[r], true);
  }
  return bitmap.SumAndClear(sample_);
}

Weight ServingSnapshot::EstimateBox(const Box& box,
                                    QueryScratch* scratch) const {
  return box_index_.Estimate(sample_, {&box, 1}, &scratch->bitmap);
}

Weight ServingSnapshot::EstimateQuery(const MultiRangeQuery& q,
                                      QueryScratch* scratch) const {
  return box_index_.Estimate(sample_, q.boxes, &scratch->bitmap);
}

std::size_t ServingSnapshot::DrawIndex(Rng* rng) const {
  if (accept_.empty()) {
    throw std::logic_error("ServingSnapshot::DrawIndex on an empty snapshot");
  }
  const std::size_t c = rng->NextBounded(accept_.size());
  const double u = rng->NextDouble();
  return u < accept_[c] ? c : alias_[c];
}

}  // namespace sas
