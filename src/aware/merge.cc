#include "aware/merge.h"

#include <cassert>

#include "aware/aware_summarize.h"

namespace sas {

Sample MergeSamples(std::span<const Sample* const> parts, std::size_t s,
                    Rng* rng, MergeScratch* scratch) {
  assert(s >= 1);
  std::size_t total = 0;
  for (const Sample* part : parts) total += part->size();

  // Combined entry set, each entry carried at its adjusted weight under its
  // source sample. Entries keep that weight in the output, so a light entry
  // (inclusion probability tau_src/tau_new) is adjusted to tau_new by
  // Sample::AdjustedWeight while a pre-settled heavy entry keeps its value.
  std::vector<WeightedKey>& entries = scratch->entries;
  std::vector<Weight>& weights = scratch->build.weights;
  entries.clear();
  weights.clear();
  entries.reserve(total);
  weights.reserve(total);
  for (const Sample* part : parts) {
    for (const WeightedKey& e : part->entries()) {
      const Weight w = part->AdjustedWeight(e);
      entries.push_back({e.id, w, e.pt});
      weights.push_back(w);
    }
  }

  if (total <= s) {
    // Everything fits: keep all entries at their adjusted weights. The
    // threshold must not disturb them, so it is 0 ("include everything").
    return Sample(0.0, {entries.begin(), entries.end()});
  }

  AwareSummarizeInto(weights, AwareStructure::Shuffled(),
                     static_cast<double>(s), rng, &scratch->build,
                     &scratch->out);
  // The settled vector, not out.chosen, so the entries stay in merged-input
  // order.
  const std::vector<double>& settled = scratch->build.work;
  Sample out;
  out.set_tau(scratch->out.tau);
  out.Reserve(s + 1);
  for (std::size_t i = 0; i < total; ++i) {
    if (settled[i] == 1.0) out.Append(entries[i]);
  }
  return out;
}

}  // namespace sas
