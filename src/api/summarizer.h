// Summarizer: the uniform builder behind the public API. Every summary in
// the library — the in-memory structure-aware samplers (src/aware/), the
// streaming two-pass constructions, and the baseline summaries — is built
// by feeding weighted keys into a Summarizer obtained from the registry
// (api/registry.h) and calling Finalize():
//
//   SummarizerConfig cfg;
//   cfg.s = 500;
//   auto builder = MakeSummarizer(keys::kProduct, cfg);
//   for (const WeightedKey& k : data) builder->Add(k);
//   std::unique_ptr<RangeSummary> summary = builder->Finalize();
//   Weight est = summary->EstimateBox(box);
//
// Because every method hides behind the same Add/Finalize surface, scale-out
// wrappers (sharded or async backends) can compose in front of any method
// without touching call sites.
//
// Thread-safety: a Summarizer is single-caller — drive each builder from
// one thread at a time (no internal synchronization on the ingest path).
// Distinct builders are fully independent and may run on distinct threads
// concurrently; the "sharded:" wrapper spawns its worker threads behind
// this same single-caller surface. SummarizerConfig and StructureSpec are
// plain value types, freely copyable across threads (the hierarchy pointer
// in StructureSpec is borrowed — the caller keeps it alive and immutable
// for the builder's lifetime).

#ifndef SAS_API_SUMMARIZER_H_
#define SAS_API_SUMMARIZER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "api/summary.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

class FaultInjector;
class InnerBuilders;
class ServableSummarizer;
class WindowedSummarizer;

namespace telemetry {
struct TelemetrySnapshot;
}  // namespace telemetry

/// What a builder does with an invalid record (non-finite or negative
/// weight, non-finite coordinate or timestamp at the parse boundary).
enum class IngestPolicy {
  /// Reject loudly: Add/AddBatch throw std::invalid_argument before any
  /// state changes. The default — corrupt input is a caller bug.
  kStrict,
  /// Quarantine quietly: drop the record, count it in IngestStats, keep
  /// ingesting. For pipelines fed by untrusted traces that must not stall.
  kQuarantine,
};

/// Ingest-boundary counters surfaced by Summarizer::Describe(). The
/// sharded/windowed wrappers report their own producer-side counters, not
/// their inner builders' (records a wrapper accepts are never re-validated
/// downstream); serve: reports its inner builder's.
struct IngestStats {
  /// Records admitted into the build.
  std::uint64_t accepted = 0;
  /// Records quarantined for a non-finite or negative weight.
  std::uint64_t rejected_weight = 0;
  /// Records quarantined for a non-finite coordinate/timestamp (only
  /// reachable through boundaries that ingest floating-point positions,
  /// e.g. the windowed wrapper's timestamps; API coords are integral).
  std::uint64_t rejected_coord = 0;
  /// Memory-budget degradation events (see SummarizerConfig::max_bytes):
  /// number of times an engine stepped its effective sample size down.
  std::uint64_t degradations = 0;
};

/// Describes the structure on the key domain that a structure-aware method
/// should preserve (Section 2 of the paper). Baseline methods ignore it.
struct StructureSpec {
  /// For a hierarchy: the key hierarchy (not owned; must outlive the
  /// summarizer). Keys must be added in key-id order, item k at hierarchy
  /// leaf leaf_of_key(k).
  const Hierarchy* hierarchy = nullptr;
  /// For disjoint ranges: range_of[i] is the range (in [0, num_ranges))
  /// of the i-th item *added*, so it must have exactly one entry per item.
  /// Add items in key-id order if you want id-keyed semantics.
  std::vector<int> range_of;
  int num_ranges = 0;
  /// For a d-dimensional product: number of axes (points fed via
  /// AddCoords, or via Add when dims <= 2).
  int dims = 2;

  /// 1-D total order over the key ids.
  static StructureSpec Order() { return {nullptr, {}, 0, 1}; }
  /// Key hierarchy; `h` is borrowed and must outlive the summarizer.
  static StructureSpec OverHierarchy(const Hierarchy* h) {
    return {h, {}, 0, 1};
  }
  /// Disjoint flat ranges: range_of[i] is the range of the i-th item added.
  static StructureSpec Disjoint(std::vector<int> range_of, int num_ranges) {
    return {nullptr, std::move(range_of), num_ranges, 1};
  }
  /// 2-D product domain (the default).
  static StructureSpec Product() { return {}; }
  /// d-dimensional product domain, dims in [1, 16] (validated by the
  /// registry at MakeSummarizer time).
  static StructureSpec Nd(int dims) { return {nullptr, {}, 0, dims}; }
};

/// One configuration struct for every method: target size, seed, structure
/// descriptor, and per-method options. Unused fields are ignored by methods
/// they do not apply to.
struct SummarizerConfig {
  /// Target summary size s: expected sample size for the samplers, retained
  /// coefficients for the wavelet, compression parameter for the q-digest,
  /// counter budget for the sketch.
  double s = 100.0;

  /// Seed for every random draw of the build; identical (config, input)
  /// pairs produce identical summaries.
  std::uint64_t seed = 0x5EEDF00DULL;

  StructureSpec structure;

  /// Two-pass constructions: oversampling factor s' = factor * s for the
  /// pass-1 guide sample (the paper uses 5).
  double sprime_factor = 5.0;

  /// Two-pass hierarchy construction: which partition to use.
  HierarchyPartition hierarchy_partition = HierarchyPartition::kLinearize;

  /// Domain bits per axis, required by the wavelet / q-digest / sketch
  /// baselines (domain size = 2^bits).
  int bits_x = 32;
  int bits_y = 32;

  /// What to do with invalid records at the ingest boundary (see
  /// IngestPolicy). The sharded:/windowed: wrappers validate at their
  /// outer surface and hand inner builders pre-validated batches; serve:
  /// leaves validation to its inner builder.
  IngestPolicy ingest_policy = IngestPolicy::kStrict;

  /// Soft memory budget in bytes; 0 = unbounded (the default). Engines
  /// that buffer per-epoch or per-shard state (windowed buckets, sharded
  /// inners) respond to pressure against this budget by stepwise halving
  /// their effective sample size s instead of growing without bound; each
  /// step is counted in IngestStats::degradations and logged to stderr.
  /// Estimates remain unbiased — a degraded build is a valid build at a
  /// smaller s.
  std::size_t max_bytes = 0;

  /// Fault injector driving this builder's fault sites; null (the default)
  /// falls back to FaultInjector::Global(), which arms itself from the
  /// SAS_FAULTS environment variable. Tests install their own injector
  /// here for isolation; composed wrappers propagate it to inner builders.
  std::shared_ptr<FaultInjector> faults;
};

/// Uniform builder: feed items with Add/AddBatch (or AddCoords for the
/// d-dimensional method), then call Finalize() exactly once. A finalized
/// summarizer is spent; build a new one for the next summary (or recycle
/// it through Reset() when the method supports that). Single-caller: one
/// thread drives a given builder at a time.
class Summarizer {
 public:
  /// Takes the validated config by value; the registry factories call this
  /// after eager validation, so cfg is well-formed for the method.
  explicit Summarizer(SummarizerConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~Summarizer() = default;

  /// Feeds one weighted key. Must not be called after Finalize().
  virtual void Add(const WeightedKey& item) = 0;

  /// Adds a contiguous batch; the default loops over Add. Overrides give
  /// the hot ingest path a single virtual dispatch per batch.
  virtual void AddBatch(std::span<const WeightedKey> items) {
    for (const WeightedKey& it : items) Add(it);
  }

  /// Adds one d-dimensional point (dims coordinates). Only the "nd" method
  /// supports general d; the default throws std::logic_error, before any
  /// state changes, so callers may probe and fall back to Add. The "nd"
  /// builder rejects a dims mismatch with std::invalid_argument and
  /// mixing Add/AddCoords on one builder with std::logic_error.
  virtual void AddCoords(const Coord* coords, int dims, Weight w);

  /// Adds one d-dimensional point under a caller-chosen key id. Methods
  /// that key their samples (the "nd" builder) store the id with the point,
  /// so ids stay stable when the stream is partitioned across builders —
  /// this is what lets the sharded wrapper route AddCoords input. The
  /// default forwards to AddCoords, dropping the id (methods that
  /// synthesize ids ignore it). Same support/mixing rules as AddCoords.
  virtual void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                              Weight w);

  /// Builds the summary from everything added. Call exactly once; the
  /// builder is spent afterwards (unless recycled via Reset). Input-
  /// dependent config mismatches (hierarchy/range_of counts) throw
  /// std::invalid_argument from here.
  virtual std::unique_ptr<RangeSummary> Finalize() = 0;

  /// Mergeable capability: true when (a) Finalize() produces a sample-backed
  /// summary whose Sample can be combined with others via MergeSamples
  /// (aware/merge.h), and (b) the method's semantics survive feeding it an
  /// arbitrary subset of the input (so a hash-partitioned shard sees a valid
  /// input). Methods with positional config (hierarchy/disjoint, whose
  /// structure descriptors index "the i-th item added") and the
  /// non-sample baselines report false; the sharded wrapper
  /// (api/sharded.h) only composes over mergeable methods.
  virtual bool Mergeable() const { return false; }

  /// Recycling capability: returns the builder to its freshly-constructed
  /// state under `seed`, retaining allocated capacity, and reports true.
  /// A recycled builder must behave exactly like a fresh builder
  /// constructed with the same config and that seed. Wrappers that rebuild
  /// repeatedly (the windowed ring retiring time buckets) recycle spent
  /// builders through this instead of reconstructing them. The default
  /// reports false ("not recyclable"); callers must then build a fresh one.
  virtual bool Reset(std::uint64_t seed) {
    (void)seed;
    return false;
  }

  /// Windowed capability: downcast to the time-windowed wrapper
  /// (window/windowed.h), or nullptr for every non-windowed method. The
  /// windowed wrapper extends the builder surface with the timestamped
  /// ingest/query calls (AddTimed / Advance / QueryAt) that generic
  /// summarizers do not have; callers that never downcast can keep using
  /// the plain Add/Finalize surface (the ring degenerates to one bucket
  /// at time 0).
  virtual WindowedSummarizer* AsWindowed() { return nullptr; }

  /// Serving capability: downcast to the lock-free serving wrapper
  /// (serve/servable.h), or nullptr for every non-serve method. The serve
  /// wrapper exposes the QueryService that concurrent reader threads share
  /// while this builder keeps ingesting and republishing; callers that
  /// never downcast use the plain Add/Finalize surface unchanged.
  virtual ServableSummarizer* AsServable() { return nullptr; }

  /// The validated config this builder was constructed with (Reset updates
  /// its seed in place).
  const SummarizerConfig& config() const { return cfg_; }

  /// Ingest-boundary counters for this builder (see IngestStats). Read
  /// from the ingest thread, or after workers have joined — reading while
  /// another thread ingests is a race by the single-caller contract.
  virtual const IngestStats& Describe() const { return stats_; }

  /// Process-wide telemetry snapshot (core/telemetry.h) with this builder's
  /// fault injector's per-site hit counters re-exported — the metrics
  /// counterpart of Describe(). Unlike Describe(), the snapshot spans every
  /// instrumented builder in the process, not just this one.
  telemetry::TelemetrySnapshot DescribeTelemetry() const;

 protected:
  /// Validates one weight at the ingest boundary: accepts finite
  /// non-negative weights (counted in stats_.accepted) and handles the rest
  /// per cfg_.ingest_policy — kStrict throws std::invalid_argument naming
  /// the offending value; kQuarantine counts it in stats_.rejected_weight
  /// and returns false ("drop this record"). Implementations call this
  /// before any state changes so strict rejection leaves the builder
  /// untouched.
  bool AdmitWeight(Weight w);

  /// Batch fast path: true when every weight in `items` is finite and
  /// non-negative, so AddBatch overrides can skip per-record AdmitWeight
  /// calls (bulk-count into stats_.accepted) on clean input.
  static bool AllFinite(std::span<const WeightedKey> items);

  /// IngestStats bumpers that mirror into the process telemetry counters
  /// (`sas.ingest.*`) when armed. Engines route every stats_ mutation
  /// through these so Describe() and the registry can never disagree.
  /// A record is counted once: the record counters are mirrored only by
  /// the builder that admitted it at the outermost boundary, never by a
  /// wrapper's inner builders. Degradations are each engine's own events
  /// and always mirror.
  void CountAccepted(std::uint64_t n = 1);
  void CountRejectedWeight(std::uint64_t n = 1);
  void CountRejectedCoord(std::uint64_t n = 1);
  void CountDegradation(std::uint64_t n = 1);

  SummarizerConfig cfg_;
  IngestStats stats_;

 private:
  friend class InnerBuilders;  // clears mirror_ingest_ (api/compose.h)

  /// False for a wrapper's inner builders, whose records the wrapper
  /// already counted.
  bool mirror_ingest_ = true;
};

}  // namespace sas

#endif  // SAS_API_SUMMARIZER_H_
