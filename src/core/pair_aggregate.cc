#include "core/pair_aggregate.h"

#include <cassert>

namespace sas {

double SnapProbability(double p) {
  if (p <= kProbEps) return 0.0;
  if (p >= 1.0 - kProbEps) return 1.0;
  return p;
}

void PairAggregate(double* pi, double* pj, Rng* rng) {
  const double a = *pi;
  const double b = *pj;
  assert(a > 0.0 && a < 1.0 && b > 0.0 && b < 1.0);
  const double sum = a + b;
  if (sum < 1.0) {
    // Move all mass onto one of the two keys; exclude the other.
    if (rng->NextDouble() < a / sum) {
      *pi = SnapProbability(sum);
      *pj = 0.0;
    } else {
      *pj = SnapProbability(sum);
      *pi = 0.0;
    }
  } else {
    // Include one key outright; the other keeps the leftover mass sum - 1.
    const double leftover = SnapProbability(sum - 1.0);
    if (rng->NextDouble() < (1.0 - b) / (2.0 - sum)) {
      *pi = 1.0;
      *pj = leftover;
    } else {
      *pi = leftover;
      *pj = 1.0;
    }
  }
}

std::size_t ChainAggregate(std::vector<double>* probs,
                           const std::vector<std::size_t>& indices,
                           std::size_t carry, Rng* rng) {
  RngStream draws(rng);
  return ChainAggregateRange(probs->data(), indices.data(), indices.size(),
                             carry, &draws);
}

std::size_t ChainAggregateRange(double* p, const std::size_t* indices,
                                std::size_t count, std::size_t carry,
                                RngStream* draws) {
  // The carry probability lives in `pa`; p[active] is written only when the
  // carry settles or the chain ends. Each merge performs the PairAggregate
  // arithmetic in registers, consumes exactly one draw, and issues a single
  // store for the entry that settled; the open side continues as the carry.
  std::size_t active = kNoEntry;
  double pa = 0.0;
  if (carry != kNoEntry && !IsSet(p[carry])) {
    active = carry;
    pa = p[carry];
  }
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = indices[k];
    const double pi = p[i];
    if (IsSet(pi)) continue;
    if (active == kNoEntry) {
      active = i;
      pa = pi;
      continue;
    }
    const double u = draws->NextDouble();
    const double sum = pa + pi;
    if (sum < 1.0) {
      // All mass moves onto one of the two keys; the other is excluded.
      const double v = SnapProbability(sum);  // can snap up to 1
      const bool keep_active = u < pa / sum;
      const std::size_t winner = keep_active ? active : i;
      const std::size_t loser = keep_active ? i : active;
      p[loser] = 0.0;
      if (IsSet(v)) {
        p[winner] = v;
        active = kNoEntry;
      } else {
        active = winner;
        pa = v;
      }
    } else {
      // One key is included outright; the other keeps sum - 1.
      const double leftover = SnapProbability(sum - 1.0);  // can snap to 0
      const bool active_is_one = u < (1.0 - pi) / (2.0 - sum);
      const std::size_t one = active_is_one ? active : i;
      const std::size_t rest = active_is_one ? i : active;
      p[one] = 1.0;
      if (IsSet(leftover)) {
        p[rest] = leftover;
        active = kNoEntry;
      } else {
        active = rest;
        pa = leftover;
      }
    }
  }
  if (active != kNoEntry) p[active] = pa;
  return active;
}

void TreeAggregate(const AggregationTree& tree, double* probs, Rng* rng,
                   TreeAggregateScratch* scratch) {
  const std::size_t groups = tree.num_groups();
  if (groups == 0) return;
  const std::size_t n = tree.num_entries;
  auto& leftover = scratch->leftover;
  auto& chain = scratch->chain;
  leftover.resize(groups);
  RngStream draws(rng);
  // Group 0 cannot name a leftover, so it chains straight from the
  // members; later groups resolve theirs into `chain` first.
  leftover[0] = ChainAggregateRange(probs, tree.members.data(), tree.start[1],
                                    kNoEntry, &draws);
  for (std::size_t g = 1; g < groups; ++g) {
    chain.clear();
    for (std::size_t k = tree.start[g]; k < tree.start[g + 1]; ++k) {
      const std::size_t m = tree.members[k];
      assert(m < n + g);  // an entry or an earlier group's leftover
      const std::size_t e = m < n ? m : leftover[m - n];
      if (e != kNoEntry) chain.push_back(e);
    }
    leftover[g] = ChainAggregateRange(probs, chain.data(), chain.size(),
                                      kNoEntry, &draws);
  }
  ResolveResidual(probs, leftover[groups - 1], &draws);
}

void ResolveResidual(std::vector<double>* probs, std::size_t entry,
                     Rng* rng) {
  if (entry == kNoEntry) return;
  auto& p = *probs;
  if (IsSet(p[entry])) return;
  p[entry] = rng->NextBernoulli(p[entry]) ? 1.0 : 0.0;
}

void ResolveResidual(double* probs, std::size_t entry, RngStream* draws) {
  if (entry == kNoEntry) return;
  if (IsSet(probs[entry])) return;
  probs[entry] = draws->NextBernoulli(probs[entry]) ? 1.0 : 0.0;
}

}  // namespace sas
