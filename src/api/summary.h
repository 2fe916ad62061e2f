// Public summary interface: every summary the library can build — the
// structure-aware samples, the streaming constructions, and the baseline
// deterministic summaries — is finalized into a RangeSummary. The eval
// harness, the per-figure benches, and the examples are written against
// this interface only.

#ifndef SAS_API_SUMMARY_H_
#define SAS_API_SUMMARY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/box_index.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

class SampleSummary;

/// Metadata describing a finalized summary (method key, family, size, and
/// free-form parameters such as tau or the oversampling factor).
struct SummaryInfo {
  std::string method;  // canonical registry key (api/keys.h)
  std::string family;  // "sample" | "deterministic" | "sketch" | "exact"
  std::size_t size_elements = 0;
  std::vector<std::pair<std::string, std::string>> params;
};

class RangeSummary {
 public:
  virtual ~RangeSummary() = default;

  /// Estimated total weight of a multi-rectangle query.
  virtual Weight EstimateQuery(const MultiRangeQuery& q) const = 0;

  /// Convenience: estimate over a single axis-parallel box.
  Weight EstimateBox(const Box& box) const {
    MultiRangeQuery q;
    q.boxes.push_back(box);
    return EstimateQuery(q);
  }

  /// Size in "elements of the original data" (paper's space accounting).
  virtual std::size_t SizeInElements() const = 0;

  /// Canonical method key this summary was built under (api/keys.h).
  virtual std::string Name() const = 0;

  /// Structured metadata; the default reports Name()/SizeInElements() with
  /// family "deterministic". Overrides add method-specific parameters.
  virtual SummaryInfo Describe() const;

  /// Downcast to the sample-backed summary, or nullptr for deterministic
  /// summaries. Samples expose entries, IPPS probabilities, and subset
  /// queries that rectangle-only summaries cannot answer.
  virtual const SampleSummary* AsSample() const { return nullptr; }
};

/// A summary backed by a (structure-aware or oblivious) VarOpt sample,
/// optionally carrying the initial IPPS probabilities of the build items
/// (indexed like the items fed to the summarizer; used by discrepancy
/// evaluation and the Figure 1 example). Box queries run on a BoxIndex
/// built once here, at construction, so the first query pays no build.
class SampleSummary : public RangeSummary {
 public:
  SampleSummary(std::string name, Sample sample);
  SampleSummary(std::string name, Sample sample, std::vector<double> probs);

  /// Out of line (api/summary.cc): answered by the box index, bit-identical
  /// to sample().EstimateQuery(q); the query latency feeds the
  /// `sas.query.estimate_ns` telemetry histogram when armed.
  Weight EstimateQuery(const MultiRangeQuery& q) const override;
  std::size_t SizeInElements() const override { return sample_.size(); }
  std::string Name() const override { return name_; }
  SummaryInfo Describe() const override;
  const SampleSummary* AsSample() const override { return this; }

  const Sample& sample() const { return sample_; }
  /// Moves the sample out (for owners consuming the summary, e.g. the
  /// sharded wrapper handing shard samples to the merge). The summary is
  /// left with an empty sample and releases its index.
  Sample TakeSample() {
    index_ = BoxIndex();
    return std::move(sample_);
  }
  double tau() const { return sample_.tau(); }
  /// Initial IPPS probabilities, or empty when the construction does not
  /// retain them (the streaming builders).
  const std::vector<double>& probs() const { return probs_; }

 private:
  std::string name_;
  Sample sample_;
  std::vector<double> probs_;
  BoxIndex index_;  // over sample_; declared after it (init order)
};

}  // namespace sas

#endif  // SAS_API_SUMMARY_H_
