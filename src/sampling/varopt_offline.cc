#include "sampling/varopt_offline.h"

#include <utility>

#include "aware/aware_summarize.h"

namespace sas {

Sample VarOptOffline(const std::vector<WeightedKey>& items, double s,
                     Rng* rng) {
  SummarizeScratch scratch;
  SummarizeOutput out;
  scratch.weights.reserve(items.size());
  for (const WeightedKey& it : items) scratch.weights.push_back(it.weight);
  AwareSummarizeInto(scratch.weights, AwareStructure::Shuffled(), s, rng,
                     &scratch, &out);
  std::vector<WeightedKey> chosen;
  chosen.reserve(out.chosen.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (scratch.work[i] == 1.0) chosen.push_back(items[i]);
  }
  return Sample(out.tau, std::move(chosen));
}

}  // namespace sas
