// Time-windowed streaming behind the registry: the composed key
// "windowed:<W>:<B>:<inner-key>" maintains a sliding window of the last W
// time units as a ring of B time buckets, each summarized by an
// <inner-key> summarizer made by the composition layer (api/compose.h).
// Ingest is timestamped; a query merges the live buckets' VarOpt samples
// (aware/merge.h) into one sample of expected size cfg.s covering the
// window:
//
//   auto builder = MakeSummarizer("windowed:3600:60:obliv", cfg);
//   auto* win = builder->AsWindowed();
//   for (const auto& [ts, item] : trace) win->AddTimed(ts, item);
//   const Sample& last_hour = win->QueryAt(now);     // merged live buckets
//
// Bucketing: time is split into epochs of span W/B; epoch e covers
// [e*span, (e+1)*span). The ring holds the current epoch (an item buffer
// still accepting ingest) plus the most recent B-1 sealed epochs (each a
// finished VarOpt sample of expected size s). An epoch expires — its slot
// is retired and its sample freed — as soon as its *start* is W old,
// i.e. expiry snaps to bucket boundaries from below: an item exactly W old
// is always outside the window, and items as young as W - W/B may already
// be out, so the effective coverage lies between W - W/B and W. More
// buckets track the trailing edge more tightly (less in-window data
// expired early) at the cost of more samples to merge and more rebuilds.
//
// Bucket rebuilds: the current bucket buffers raw items; it is built into a
// sample when it seals (time advances past its epoch) and, on demand, when
// a query arrives mid-epoch. Each build runs a fresh inner builder from the
// composition layer, and the merge reuses one MergeScratch.
//
// Determinism: the bucket for epoch e is seeded ForkSeed(seed', e) and the
// merge RNG is derived from (seed', epoch, items in the current bucket), so
// a fixed (seed, W, B, timestamped input) reproduces every sample
// bit-identically.
//
// Untimed use: plain Add/AddBatch ingest at the current clock (initially
// time 0), so a windowed key behaves like its inner method wrapped in one
// bucket when no caller advances time. This is what makes the key safe to
// hand to generic call sites (the eval harness, the sharded wrapper —
// "sharded:<N>:windowed:..." and "windowed:<W>:<B>:sharded:<N>:..." both
// compose).

#ifndef SAS_WINDOW_WINDOWED_H_
#define SAS_WINDOW_WINDOWED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/compose.h"
#include "api/summarizer.h"
#include "api/summary.h"
#include "aware/merge.h"
#include "core/random.h"
#include "core/sample.h"

namespace sas {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// The wrapper itself. Construct through MakeSummarizer, which parses the
/// key (api/registry.cc); exposed for tests and for the timestamped surface
/// (reach it via Summarizer::AsWindowed).
class WindowedSummarizer : public Summarizer {
 public:
  /// `key` is the composed key reported by the finalized summary's Name();
  /// `window` and `buckets` its parsed W (positive, finite, with W/B > 0)
  /// and B. Builds one inner builder eagerly, so an inner method that
  /// cannot be made or is not Mergeable throws std::invalid_argument here.
  WindowedSummarizer(std::string key, double window, int buckets,
                     const SummarizerConfig& cfg, InnerBuilders inner);

  // --- Generic builder surface (untimed: ingests at the current clock) ---

  void Add(const WeightedKey& item) override;
  void AddBatch(std::span<const WeightedKey> items) override;

  /// Merges the live buckets into the window summary and spends the
  /// builder, like every Summarizer.
  std::unique_ptr<RangeSummary> Finalize() override;

  /// The merged output is a plain VarOpt sample, so windowed summarizers
  /// can sit under the sharded wrapper (and under another merge).
  bool Mergeable() const override { return true; }

  /// Full recovery, including from the poisoned and finalized states:
  /// empties the ring and the current bucket, rewinds the clock to 0,
  /// clears every counter, and re-derives the bucket/merge seed streams
  /// from `seed`. A reset builder is bit-identical to a freshly
  /// constructed one with cfg.seed = seed. Always returns true (the ring
  /// state is plain buffers; every bucket build makes a fresh inner
  /// builder).
  bool Reset(std::uint64_t seed) override;

  WindowedSummarizer* AsWindowed() override { return this; }

  // --- Timestamped surface ---

  /// Moves the clock forward to `now` (the clock is monotone: a `now` in
  /// the past is a no-op). Crossing an epoch boundary seals the current
  /// bucket into its sample and retires every bucket whose span has fully
  /// left the window. Throws std::invalid_argument for non-finite times.
  void Advance(double now);

  /// Advance(ts) + Add. Late items (ts earlier than the clock) are not
  /// reordered: if ts's bucket is still live they join the *current*
  /// bucket (they will expire up to W/B late; late_items() counts them),
  /// and items whose bucket has left the window — age above W - W/B at
  /// bucket granularity, which includes everything exactly W old — are
  /// dropped (dropped_items()).
  void AddTimed(double ts, const WeightedKey& item);

  /// The merged VarOpt sample over the live window at `now` (advances the
  /// clock first). Repeated queries reuse a cached merged sample: the merge
  /// re-runs only after the ring advances past an epoch boundary or new
  /// items arrive (merges_performed() observes this). The reference is
  /// valid until the next non-const call.
  const Sample& QueryAt(double now);

  /// Installs a publish hook invoked with the merged window sample every
  /// time the ring advances past an epoch boundary (the serving tier —
  /// serve/servable.h — republishes through this; the window layer itself
  /// has no serve dependency). The hook runs on the ingest thread after the
  /// ring is consistent; its exceptions propagate to the Advance caller
  /// without poisoning the ring. Installing a hook makes every epoch
  /// crossing merge eagerly (merges_performed() counts those merges too).
  /// Pass nullptr to uninstall. Not called for the degenerate "no advance"
  /// untimed use.
  void SetPublishHook(std::function<void(const Sample&)> hook) {
    publish_hook_ = std::move(hook);
  }

  // --- Introspection (tests, benches, monitoring) ---

  double now() const { return now_; }
  double window() const { return window_; }
  int buckets() const { return static_cast<int>(ring_.size()); }
  double bucket_span() const { return span_; }
  /// Epoch index of time `ts` under this wrapper's bucketing.
  std::int64_t EpochOf(double ts) const;
  /// Live sealed buckets plus the current bucket when it holds items.
  int live_buckets() const;
  std::size_t merges_performed() const { return merges_; }
  std::size_t late_items() const { return late_items_; }
  std::size_t dropped_items() const { return dropped_items_; }
  /// True once a bucket seal or window merge failed mid-update: the ring
  /// may be inconsistent, so every call but Reset throws. Reset(seed)
  /// recovers.
  bool poisoned() const { return poisoned_; }
  /// The sample size buckets are currently built at: cfg.s until the
  /// max_bytes budget forces stepwise halvings (IngestStats::degradations
  /// counts them).
  double effective_s() const { return effective_s_; }

 private:
  struct Slot {
    std::int64_t epoch = kNoEpoch;  // kNoEpoch marks an empty slot
    Sample sample;
  };
  static constexpr std::int64_t kNoEpoch = INT64_MIN;

  void RequireLive(const char* what) const;
  /// Builds the inner summary over `items` with a fresh inner builder
  /// under the bucket seed of `epoch` and returns its sample.
  Sample BuildBucketSample(std::int64_t epoch,
                           std::span<const WeightedKey> items);
  /// Seals the current bucket's buffer into its ring slot (no-op when the
  /// buffer is empty or the bucket would already be expired at
  /// `next_epoch`).
  void SealCurrentBucket(std::int64_t next_epoch);
  /// Retires every slot whose epoch has left the window of `epoch`.
  void RetireExpired(std::int64_t current_epoch);
  /// Applies the max_bytes budget before a bucket build: halves
  /// effective_s_ until the estimated retained bytes of the live ring fit
  /// (floor 1), counting each step in IngestStats::degradations.
  void MaybeDegrade();
  void InvalidateCache() { cache_valid_ = false; }
  const Sample& MergedWindow();

  std::string key_;
  InnerBuilders inner_;
  double window_ = 0.0;
  double span_ = 0.0;
  std::uint64_t bucket_seed_base_ = 0;
  std::uint64_t merge_seed_base_ = 0;

  double now_ = 0.0;
  std::int64_t cur_epoch_ = 0;
  std::vector<WeightedKey> cur_items_;   // current bucket's raw buffer
  std::vector<Slot> ring_;               // sealed buckets, slot = epoch % B

  MergeScratch merge_scratch_;
  std::vector<const Sample*> merge_parts_;

  std::function<void(const Sample&)> publish_hook_;
  Sample cached_window_;
  bool cache_valid_ = false;
  bool finalized_ = false;
  bool poisoned_ = false;
  double effective_s_ = 0.0;

  std::size_t merges_ = 0;
  std::size_t late_items_ = 0;
  std::size_t dropped_items_ = 0;

  // Telemetry instruments (core/telemetry.h), resolved once at
  // construction; hot-path updates are guarded by telemetry::Enabled().
  telemetry::Histogram* seal_ns_ = nullptr;
  telemetry::Histogram* bucket_items_ = nullptr;
  telemetry::Histogram* merge_fanin_ = nullptr;
  telemetry::Histogram* query_ns_ = nullptr;
  telemetry::Counter* expired_buckets_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* cache_misses_ = nullptr;
};

}  // namespace sas

#endif  // SAS_WINDOW_WINDOWED_H_
