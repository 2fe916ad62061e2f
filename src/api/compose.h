// The composition layer's contract with the wrapper engines. The composed
// keys "sharded:<N>:", "windowed:<W>:<B>:" and "serve:" wrap any sampling
// key and nest; every decision about them — the key grammar, each inner
// builder's config, the inner sample hand-off and the memory-budget rule —
// is made once, in api/registry.cc. The engines (the worker pool in
// api/sharded.cc, the ring in window/windowed.cc, the query service in
// serve/servable.cc) receive parsed values and the helpers below.
//
// Thread-safety: InnerBuilders is immutable after construction; Make may be
// called from any thread (the sharded wrapper's shards all build from one).

#ifndef SAS_API_COMPOSE_H_
#define SAS_API_COMPOSE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "api/summarizer.h"
#include "api/summary.h"

namespace sas {

/// A parsed composed key: every wrapper layer and the innermost key.
/// Defined in api/registry.cc, the one place keys are parsed.
struct ComposedChain;

/// Makes a sharded: or windowed: wrapper's inner builders: the method the
/// rest of the key names, under the wrapper's config with a derived seed
/// and sample size. Inner builders keep their own instruments but do not
/// mirror the `sas.ingest.*` record counters — the wrapper already counted
/// each record at its own boundary, so a process counts it once.
class InnerBuilders {
 public:
  InnerBuilders(std::shared_ptr<const ComposedChain> chain, std::size_t level);

  /// The inner key ("obliv", "windowed:60:4:obliv", ...), for messages.
  const std::string& key() const { return key_; }

  /// A fresh inner builder: `cfg` (the wrapper's config) with `seed` and
  /// `s` in place; under a windowed wrapper also max_bytes = 0, since the
  /// ring budgets every bucket itself. Throws std::invalid_argument when
  /// the inner method is not Mergeable.
  std::unique_ptr<Summarizer> Make(const SummarizerConfig& cfg,
                                   std::uint64_t seed, double s) const;

 private:
  std::shared_ptr<const ComposedChain> chain_;
  std::size_t level_;
  std::string key_;
};

/// The sample behind a wrapper's inner summary. Throws
/// std::invalid_argument naming the wrapper's `key` when the inner method's
/// summary is not sample-backed (the deterministic baselines).
SampleSummary& InnerSample(RangeSummary& summary, const std::string& key);

/// The max_bytes budget (SummarizerConfig::max_bytes) of a wrapper that
/// retains `samples` samples of size *s: halves *s (floor 1) until the
/// estimate samples * s * 64 bytes fits, logs any step to stderr under
/// `key`, and returns the number of halvings. A zero budget is unbounded.
std::uint32_t HalveToBudget(const std::string& key, double* s,
                            std::size_t samples, std::size_t max_bytes);

}  // namespace sas

#endif  // SAS_API_COMPOSE_H_
