#include "window/windowed.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/fault.h"
#include "core/telemetry.h"

namespace sas {

namespace {

// Distinct salts keep the bucket-seed and merge-seed streams independent of
// each other and of the sharded wrapper's partition salt.
constexpr std::uint64_t kBucketSeedTag = 0x5EA1B0C4E7B0C4E7ULL;
constexpr std::uint64_t kMergeSeedTag = 0x3E6E5A1AD3A9F0B5ULL;

}  // namespace

// ---------------------------------------------------------------------------

WindowedSummarizer::WindowedSummarizer(std::string key, double window,
                                       int buckets,
                                       const SummarizerConfig& cfg,
                                       InnerBuilders inner)
    : Summarizer(cfg),
      key_(std::move(key)),
      inner_(std::move(inner)),
      window_(window),
      span_(window / static_cast<double>(buckets)) {
  bucket_seed_base_ = Mix64(cfg.seed ^ kBucketSeedTag);
  merge_seed_base_ = Mix64(cfg.seed ^ kMergeSeedTag);
  effective_s_ = cfg.s;
  ring_.resize(static_cast<std::size_t>(buckets));
  // Cold registry lookups; the hot paths only touch the cached pointers.
  seal_ns_ = telemetry::GetHistogram("sas.window.seal_ns");
  bucket_items_ = telemetry::GetHistogram("sas.window.bucket_items");
  merge_fanin_ = telemetry::GetHistogram("sas.window.merge_fanin");
  query_ns_ = telemetry::GetHistogram("sas.window.query_ns");
  expired_buckets_ = telemetry::GetCounter("sas.window.expired_buckets");
  cache_hits_ = telemetry::GetCounter("sas.window.cache_hits");
  cache_misses_ = telemetry::GetCounter("sas.window.cache_misses");

  // Build one inner builder eagerly and drop it: invalid configs and
  // non-mergeable methods must throw at MakeSummarizer time, not at the
  // first bucket seal.
  (void)inner_.Make(cfg_, ForkSeed(bucket_seed_base_, /*stream=*/0),
                    effective_s_);
}

void WindowedSummarizer::RequireLive(const char* what) const {
  if (finalized_) {
    throw std::logic_error(std::string("windowed summarizer: ") + what +
                           " after Finalize (builders are spent once "
                           "finalized)");
  }
  if (poisoned_) {
    throw std::runtime_error(
        std::string("windowed summarizer: ") + what +
        " on a poisoned builder (a bucket seal or window merge failed "
        "mid-update, so the ring may be inconsistent; Reset(seed) "
        "recovers)");
  }
}

std::int64_t WindowedSummarizer::EpochOf(double ts) const {
  const double q = std::floor(ts / span_);
  // Clamp epochs outside the int64 range (finite but astronomically large
  // timestamps relative to the span): the cast below would otherwise be
  // undefined behavior. Clamped times all share an extreme epoch, which
  // degrades ordering only beyond +-2^63 buckets; the min clamp stays one
  // above kNoEpoch so a clamped epoch can still occupy a ring slot.
  constexpr double kEpochLimit = 9.2e18;  // safely below INT64_MAX (~9.22e18)
  if (q >= kEpochLimit) return static_cast<std::int64_t>(kEpochLimit);
  if (q <= -kEpochLimit) return -static_cast<std::int64_t>(kEpochLimit);
  return static_cast<std::int64_t>(q);
}

int WindowedSummarizer::live_buckets() const {
  int live = cur_items_.empty() ? 0 : 1;
  for (const Slot& slot : ring_) {
    if (slot.epoch != kNoEpoch && slot.epoch > cur_epoch_ - buckets()) {
      ++live;
    }
  }
  return live;
}

void WindowedSummarizer::MaybeDegrade() {
  if (cfg_.max_bytes == 0) return;
  std::size_t live_sealed = 0;
  for (const Slot& slot : ring_) {
    if (slot.epoch != kNoEpoch) ++live_sealed;
  }
  // The ring retains one expected-size-s sample per live sealed bucket
  // plus the one about to be built.
  CountDegradation(HalveToBudget(key_, &effective_s_, live_sealed + 1,
                                 cfg_.max_bytes));
}

Sample WindowedSummarizer::BuildBucketSample(
    std::int64_t epoch, std::span<const WeightedKey> items) {
  MaybeDegrade();
  auto builder = inner_.Make(
      cfg_, ForkSeed(bucket_seed_base_, static_cast<std::uint64_t>(epoch)),
      effective_s_);
  builder->AddBatch(items);
  auto summary = builder->Finalize();
  return InnerSample(*summary, key_).TakeSample();
}

void WindowedSummarizer::SealCurrentBucket(std::int64_t next_epoch) {
  if (cur_items_.empty()) return;
  if (cur_epoch_ <= next_epoch - buckets()) {
    // The bucket would be born expired (the clock jumped past the whole
    // window); skip the build and just recycle the buffer.
    cur_items_.clear();
    return;
  }
  Slot& slot = ring_[static_cast<std::size_t>(
      ((cur_epoch_ % buckets()) + buckets()) % buckets())];
  try {
    FaultPoint(cfg_.faults.get(), fault_sites::kWindowBucketSeal,
               cur_epoch_);
    if (telemetry::Enabled()) bucket_items_->Observe(cur_items_.size());
    telemetry::Span seal_span("window.seal", seal_ns_);
    slot.epoch = cur_epoch_;
    slot.sample = BuildBucketSample(cur_epoch_, cur_items_);
    // sas-lint: allow(catch-all): a failed seal leaves the slot and buffer
    // half-updated; mark the ring poisoned before the error propagates so
    // later calls fail fast instead of merging an inconsistent window.
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  cur_items_.clear();  // keeps capacity: the next bucket reuses it
}

void WindowedSummarizer::RetireExpired(std::int64_t current_epoch) {
  std::uint64_t expired = 0;
  for (Slot& slot : ring_) {
    if (slot.epoch != kNoEpoch && slot.epoch <= current_epoch - buckets()) {
      slot.epoch = kNoEpoch;
      slot.sample = Sample();  // frees the retired bucket's entries
      ++expired;
    }
  }
  if (expired > 0 && telemetry::Enabled()) expired_buckets_->Inc(expired);
}

void WindowedSummarizer::Advance(double now) {
  RequireLive("Advance");
  if (!std::isfinite(now)) {
    throw std::invalid_argument("windowed summarizer: Advance to a "
                                "non-finite time");
  }
  if (now <= now_) return;  // the clock is monotone
  now_ = now;
  const std::int64_t epoch = EpochOf(now);
  if (epoch == cur_epoch_) return;
  SealCurrentBucket(epoch);
  RetireExpired(epoch);
  cur_epoch_ = epoch;
  InvalidateCache();
  // Publish-on-ring-advance (the serving tier installs this hook): the ring
  // is consistent at this point, so a hook failure — including a merge
  // fault below — propagates without poisoning only when the merge itself
  // stayed healthy (MergedWindow poisons on its own faults, as for any
  // query). No hook, no merge: untimed and unserved windows keep their
  // lazy merge-on-query behavior (and merges_performed() counts).
  if (publish_hook_) publish_hook_(MergedWindow());
}

void WindowedSummarizer::Add(const WeightedKey& item) {
  RequireLive("Add");
  if (!AdmitWeight(item.weight)) return;
  cur_items_.push_back(item);
  InvalidateCache();
}

void WindowedSummarizer::AddBatch(std::span<const WeightedKey> items) {
  RequireLive("AddBatch");
  if (items.empty()) return;
  if (AllFinite(items)) {
    CountAccepted(items.size());
    cur_items_.insert(cur_items_.end(), items.begin(), items.end());
  } else {
    for (const WeightedKey& it : items) {
      if (AdmitWeight(it.weight)) cur_items_.push_back(it);
    }
  }
  InvalidateCache();
}

void WindowedSummarizer::AddTimed(double ts, const WeightedKey& item) {
  RequireLive("AddTimed");
  if (!std::isfinite(ts)) {
    if (cfg_.ingest_policy == IngestPolicy::kQuarantine) {
      // A record without a real position on the time axis cannot be
      // bucketed; quarantine it like a non-finite coordinate.
      CountRejectedCoord();
      return;
    }
    throw std::invalid_argument("windowed summarizer: AddTimed with a "
                                "non-finite timestamp");
  }
  if (ts > now_) Advance(ts);
  if (ts < now_) {
    // Late arrival: the stream is not reordered. Items whose epoch has
    // already left the window are dropped; the rest join the current
    // bucket (expiring up to one bucket span later than their timestamp
    // alone would suggest).
    if (EpochOf(ts) <= cur_epoch_ - buckets()) {
      ++dropped_items_;
      return;
    }
    ++late_items_;
  }
  Add(item);
}

const Sample& WindowedSummarizer::MergedWindow() {
  const bool telemetry_on = telemetry::Enabled();
  if (cache_valid_) {
    if (telemetry_on) cache_hits_->Inc();
    return cached_window_;
  }
  if (telemetry_on) cache_misses_->Inc();
  try {
    FaultPoint(cfg_.faults.get(), fault_sites::kWindowQueryMerge,
               cur_epoch_);
    merge_parts_.clear();
    // Oldest to newest, so the part order (and with it the merge) is a
    // deterministic function of the ring state.
    for (int back = buckets() - 1; back >= 1; --back) {
      const std::int64_t epoch = cur_epoch_ - back;
      const Slot& slot = ring_[static_cast<std::size_t>(
          ((epoch % buckets()) + buckets()) % buckets())];
      if (slot.epoch == epoch) merge_parts_.push_back(&slot.sample);
    }
    Sample partial;
    if (!cur_items_.empty()) {
      partial = BuildBucketSample(cur_epoch_, cur_items_);
      merge_parts_.push_back(&partial);
    }
    // The merge seed is a deterministic function of (config seed, epoch,
    // items in the current bucket), so replaying a timestamped input
    // reproduces every queried sample bit-identically. The target size is
    // effective_s_, which tracks cfg.s until the max_bytes budget steps it
    // down.
    if (telemetry_on) merge_fanin_->Observe(merge_parts_.size());
    Rng merge_rng(ForkSeed(
        merge_seed_base_,
        Mix64(static_cast<std::uint64_t>(cur_epoch_)) ^ cur_items_.size()));
    cached_window_ =
        MergeSamples(merge_parts_, static_cast<std::size_t>(effective_s_),
                     &merge_rng, &merge_scratch_);
    // sas-lint: allow(catch-all): a failed merge can leave the shared
    // merge scratch and cache mid-update; mark the ring poisoned before
    // the error propagates so later queries fail fast.
  } catch (...) {
    poisoned_ = true;
    throw;
  }
  ++merges_;
  cache_valid_ = true;
  return cached_window_;
}

const Sample& WindowedSummarizer::QueryAt(double now) {
  RequireLive("QueryAt");
  telemetry::Span query_span("window.query", query_ns_);
  Advance(now);
  return MergedWindow();
}

std::unique_ptr<RangeSummary> WindowedSummarizer::Finalize() {
  RequireLive("Finalize");
  MergedWindow();
  finalized_ = true;
  return std::make_unique<SampleSummary>(key_, std::move(cached_window_));
}

bool WindowedSummarizer::Reset(std::uint64_t seed) {
  for (Slot& slot : ring_) {
    slot.epoch = kNoEpoch;
    slot.sample = Sample();
  }
  cur_items_.clear();
  now_ = 0.0;
  cur_epoch_ = 0;
  cached_window_ = Sample();
  cache_valid_ = false;
  finalized_ = false;
  poisoned_ = false;
  merges_ = 0;
  late_items_ = 0;
  dropped_items_ = 0;
  stats_ = IngestStats{};
  effective_s_ = cfg_.s;
  cfg_.seed = seed;
  bucket_seed_base_ = Mix64(seed ^ kBucketSeedTag);
  merge_seed_base_ = Mix64(seed ^ kMergeSeedTag);
  return true;
}

}  // namespace sas
