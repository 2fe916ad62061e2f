// Poisson IPPS sampling (Appendix A): every key is included independently
// with probability min{1, w_i / tau_s}. Expected sample size s, but the
// actual size varies — the baseline that VarOpt improves on, kept as a
// test reference.

#ifndef SAS_TESTS_SAMPLING_POISSON_H_
#define SAS_TESTS_SAMPLING_POISSON_H_

#include <utility>
#include <vector>

#include "core/ipps.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Draws a Poisson IPPS sample of expected size s from `items`.
inline Sample PoissonSample(const std::vector<WeightedKey>& items, double s,
                            Rng* rng) {
  std::vector<Weight> weights;
  weights.reserve(items.size());
  for (const auto& it : items) weights.push_back(it.weight);
  const double tau = SolveTau(weights, s);

  std::vector<WeightedKey> chosen;
  for (const auto& it : items) {
    if (rng->NextBernoulli(IppsProbability(it.weight, tau))) {
      chosen.push_back(it);
    }
  }
  return Sample(tau, std::move(chosen));
}

}  // namespace sas

#endif  // SAS_TESTS_SAMPLING_POISSON_H_
