#include "sampling/stream_varopt.h"

#include <algorithm>
#include <cassert>

namespace sas {

namespace {
struct WeightGreater {
  bool operator()(const WeightedKey& a, const WeightedKey& b) const {
    return a.weight > b.weight;  // min-heap
  }
};
}  // namespace

StreamVarOpt::StreamVarOpt(std::size_t s, Rng rng) : s_(s), rng_(rng) {
  assert(s >= 1);
  heavy_.reserve(s + 1);
}

void StreamVarOpt::HeavyPush(const WeightedKey& item) {
  heavy_.push_back(item);
  std::push_heap(heavy_.begin(), heavy_.end(), WeightGreater{});
}

WeightedKey StreamVarOpt::HeavyPopMin() {
  std::pop_heap(heavy_.begin(), heavy_.end(), WeightGreater{});
  WeightedKey out = heavy_.back();
  heavy_.pop_back();
  return out;
}

void StreamVarOpt::Push(const WeightedKey& item) {
  if (item.weight <= 0.0) return;
  ++seen_;
  if (heavy_.size() + light_.size() < s_) {
    // Warmup: the first s items are kept exactly.
    HeavyPush(item);
    return;
  }

  // General step: s retained items plus the new one make s+1 candidates;
  // exactly one must be evicted with probability 1 - min(1, w/tau').
  const double tau_old = tau_;
  HeavyPush(item);

  // Determine the new threshold tau' by popping heap minima that fall on
  // the light side. Invariant: tau' = W / (#light candidates - 1) where W is
  // the total light stream mass including popped weights.
  auto& popped = popped_scratch_;
  popped.clear();
  double w_light = light_mass_;
  double tau_new = 0.0;
  for (;;) {
    const double denom =
        static_cast<double>(light_.size() + popped.size()) - 1.0;
    if (denom <= 0.0) {
      WeightedKey p = HeavyPopMin();
      w_light += p.weight;
      popped.push_back(p);
      continue;
    }
    tau_new = w_light / denom;
    if (!heavy_.empty() && heavy_.front().weight <= tau_new) {
      WeightedKey p = HeavyPopMin();
      w_light += p.weight;
      popped.push_back(p);
      continue;
    }
    break;
  }

  // Evict one light candidate. Old pool items are exchangeable with shared
  // adjusted weight tau_old, so their total eviction probability is
  // |L| * (1 - tau_old/tau'); popped items carry individual weights.
  const double u = rng_.NextDouble();
  double acc = static_cast<double>(light_.size()) *
               (1.0 - (tau_new > 0.0 ? tau_old / tau_new : 0.0));
  bool evicted = false;
  if (u < acc) {
    // Evict a uniform member of the pool (swap with last, pop).
    const std::size_t victim = rng_.NextBounded(light_.size());
    light_[victim] = light_.back();
    light_.pop_back();
    evicted = true;
  } else {
    for (std::size_t i = 0; i < popped.size(); ++i) {
      acc += 1.0 - popped[i].weight / tau_new;
      if (u < acc) {
        popped[i] = popped.back();
        popped.pop_back();
        evicted = true;
        break;
      }
    }
  }
  if (!evicted) {
    // Floating-point slack: the eviction probabilities sum to 1 exactly in
    // real arithmetic; fall back to evicting the last popped candidate (or
    // a pool member when nothing was popped).
    if (!popped.empty()) {
      popped.pop_back();
    } else {
      const std::size_t victim = rng_.NextBounded(light_.size());
      light_[victim] = light_.back();
      light_.pop_back();
    }
  }

  // Surviving popped candidates join the uniform pool at threshold tau'.
  for (const auto& p : popped) light_.push_back(p);
  light_mass_ = w_light;
  tau_ = tau_new;
  assert(heavy_.size() + light_.size() == s_);
}

Sample StreamVarOpt::TakeSample() {
  std::vector<WeightedKey> entries = std::move(heavy_);
  entries.insert(entries.end(), light_.begin(), light_.end());
  Sample out(tau_, std::move(entries));
  heavy_.clear();
  light_.clear();
  tau_ = 0.0;
  light_mass_ = 0.0;
  seen_ = 0;
  return out;
}

Sample StreamVarOpt::ToSample() const {
  std::vector<WeightedKey> entries;
  entries.reserve(size());
  entries.insert(entries.end(), heavy_.begin(), heavy_.end());
  entries.insert(entries.end(), light_.begin(), light_.end());
  return Sample(tau_, std::move(entries));
}

}  // namespace sas
