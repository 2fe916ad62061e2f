// Test-side convenience over the one structure-aware build pipeline: run
// AwareSummarizeInto on fresh scratch and hand back the sample, the initial
// IPPS probabilities and tau in one value, drawing from the caller's Rng
// (so a loop of calls consumes one stream, where registry builds would
// each need their own seed).

#ifndef SAS_TESTS_AWARE_AWARE_TEST_UTIL_H_
#define SAS_TESTS_AWARE_AWARE_TEST_UTIL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "aware/aware_summarize.h"
#include "aware/summarize_scratch.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas::test {

struct AwareResult {
  Sample sample;
  std::vector<double> probs;  // indexed like the input items
  double tau = 0.0;
};

/// The pipeline's raw output (tau, probs, chosen indices).
inline SummarizeOutput RunAware(const std::vector<Weight>& weights,
                                const AwareStructure& structure, double s,
                                Rng* rng) {
  SummarizeScratch scratch;
  SummarizeOutput out;
  AwareSummarizeInto(weights, structure, s, rng, &scratch, &out);
  return out;
}

inline AwareResult AwareSample(const std::vector<WeightedKey>& items,
                               const AwareStructure& structure, double s,
                               Rng* rng) {
  std::vector<Weight> weights;
  for (const WeightedKey& it : items) weights.push_back(it.weight);
  SummarizeOutput out = RunAware(weights, structure, s, rng);
  std::vector<WeightedKey> entries;
  for (std::uint32_t i : out.chosen) entries.push_back(items[i]);
  return {Sample(out.tau, std::move(entries)), std::move(out.probs), out.tau};
}

inline AwareResult OrderSample(const std::vector<WeightedKey>& items,
                               double s, Rng* rng) {
  return AwareSample(items, AwareStructure::Order(items), s, rng);
}

inline AwareResult HierarchySample(const std::vector<WeightedKey>& items,
                                   const Hierarchy& h, double s, Rng* rng) {
  return AwareSample(items, AwareStructure::OverHierarchy(h), s, rng);
}

inline AwareResult DisjointSample(const std::vector<WeightedKey>& items,
                                  const std::vector<int>& range_of,
                                  int num_ranges, double s, Rng* rng) {
  return AwareSample(items, AwareStructure::Disjoint(range_of, num_ranges), s,
                     rng);
}

inline AwareResult ProductSample(const std::vector<WeightedKey>& items,
                                 double s, Rng* rng) {
  return AwareSample(items, AwareStructure::Kd(items), s, rng);
}

/// The nd sampler over flat points: tau, probs and the chosen indices.
inline SummarizeOutput NdSample(const std::vector<Coord>& coords, int dims,
                                const std::vector<Weight>& weights, double s,
                                Rng* rng) {
  return RunAware(weights, AwareStructure::Kd(coords, dims), s, rng);
}

}  // namespace sas::test

#endif  // SAS_TESTS_AWARE_AWARE_TEST_UTIL_H_
