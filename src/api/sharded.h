// Shard-parallel ingest behind the registry: the composed key
// "sharded:<N>:<inner-key>" wraps N independent <inner-key> summarizers,
// hash-partitions the stream across them by key id, feeds each from its own
// worker thread, and VarOpt-merges the N shard samples (aware/merge.h) into
// one summary at Finalize. Because it hides behind the uniform
// Add/AddBatch/Finalize surface, every mergeable sample-backed method gains
// a parallel backend with zero call-site changes:
//
//   auto builder = MakeSummarizer("sharded:4:obliv", cfg);
//   builder->AddBatch(items);                 // workers ingest in parallel
//   auto summary = builder->Finalize();       // shards merged to size s
//
// Ingest path: the caller thread only hashes ids and appends to per-shard
// accumulation buffers; full buffers are handed to the shard's bounded
// queue (double-buffered — drained buffers are recycled back to the
// producer, and a full queue applies back-pressure). Each worker drains its
// queue with the inner summarizer's batched AddBatch fast path and
// finalizes its shard in parallel.
//
// Determinism: the partition is a seed-salted hash of the key id (the salt
// keeps nested wrappers' partitions independent), shard i's summarizer is
// seeded with ForkSeed(cfg.seed, i), and the merge RNG with
// ForkSeed(cfg.seed, N) — so a fixed (seed, N, input) triple reproduces the
// summary exactly, regardless of thread scheduling.

#ifndef SAS_API_SHARDED_H_
#define SAS_API_SHARDED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/compose.h"
#include "api/summarizer.h"

namespace sas {

namespace telemetry {
class Histogram;
}  // namespace telemetry

/// One failed shard, as reported by ShardedIngestError: the shard index and
/// the worker's error message (already prefixed with the shard index and
/// inner key).
struct ShardFailure {
  int shard = 0;
  std::string message;
};

/// What ShardedSummarizer::Finalize throws when workers failed: every
/// failed shard is listed (index + inner key + message), not just the first
/// one — under back-pressure several workers can die independently, and
/// retry logic needs to see all of them.
class ShardedIngestError : public std::runtime_error {
 public:
  ShardedIngestError(const std::string& key,
                     std::vector<ShardFailure> failures, int num_shards);

  const std::vector<ShardFailure>& failures() const { return failures_; }

 private:
  std::vector<ShardFailure> failures_;
};

/// The wrapper's partition policy: the shard (in [0, num_shards)) that key
/// `id` is routed to under config seed `seed`. The hash is salted with the
/// seed so that nested wrappers — whose inner seeds are forked from the
/// outer one — partition independently even when their shard counts share
/// a factor. Exposed so tests (and external routers) can pin the policy.
std::size_t ShardIndex(KeyId id, std::uint64_t seed, int num_shards);

/// The wrapper itself. Construct through MakeSummarizer, which parses the
/// key (api/registry.cc); exposed for tests.
class ShardedSummarizer : public Summarizer {
 public:
  /// `key` is the composed key reported by the finalized summary's Name();
  /// `num_shards` its parsed N. Builds shard i's inner builder under
  /// ForkSeed(cfg.seed, i) at the max_bytes-halved s. The one worker
  /// thread per shard starts at the first hand-off of a batch to a shard,
  /// or in Finalize if nothing was handed off, so an idle builder holds no
  /// threads. Throws std::invalid_argument if an inner builder cannot be
  /// made or is not Mergeable.
  ShardedSummarizer(std::string key, int num_shards,
                    const SummarizerConfig& cfg, InnerBuilders inner);
  ~ShardedSummarizer() override;

  /// Routes the item to its shard's buffer (throws std::logic_error once
  /// the builder is finalized/spent). Batches go through the inherited
  /// AddBatch, which loops Add — the caller-side work is just the hash and
  /// a buffer append; the heavy lifting happens on the workers.
  void Add(const WeightedKey& item) override;

  /// Routes one d-dimensional point. AddCoords assigns the point an id
  /// from a wrapper-global call counter (so ids are unique across shards,
  /// exactly as an unsharded "nd" builder numbers the whole stream: a
  /// quarantined point consumes its id, a rejected one does not) and
  /// forwards to AddCoordsKeyed, which hash-routes on the id
  /// like Add and replays into the shard's builder via its AddCoordsKeyed.
  /// Inner methods without coordinate support throw on the worker thread;
  /// Finalize rethrows.
  void AddCoords(const Coord* coords, int dims, Weight w) override;
  void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                      Weight w) override;

  /// Flushes, joins the workers, finalizes every shard, and merges the
  /// shard samples into one of (expected) size cfg.s. If any workers
  /// failed, throws one ShardedIngestError listing every failed shard
  /// (index, inner key, message).
  std::unique_ptr<RangeSummary> Finalize() override;

  /// The merged output is itself a VarOpt sample, so sharded summarizers
  /// nest ("sharded:2:sharded:2:obliv" type compositions).
  bool Mergeable() const override { return true; }

  /// Full recovery, including from the poisoned and finalized states:
  /// joins any workers, builds every shard a fresh inner builder under
  /// ForkSeed(seed, i), and clears errors/results/counters; the worker
  /// pool starts again on the next hand-off, as in a fresh builder. The
  /// builder is then bit-identical to a freshly constructed one with
  /// cfg.seed = seed. Always returns true.
  bool Reset(std::uint64_t seed) override;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// True once any worker has failed: Add/AddCoords throw immediately (the
  /// already-ingested input can no longer produce a complete summary);
  /// Finalize() reports the failures; Reset(seed) recovers.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

 private:
  struct Shard;
  struct Batch;

  Shard& ShardOf(KeyId id);
  void RequireHealthy(const char* call) const;
  void FlushPending(Shard& sh);
  void Enqueue(Shard& sh, Batch batch);
  void WorkerLoop(Shard* sh);
  void RecordWorkerError(Shard* sh, const std::string& what);
  void SpawnWorkers();
  void CloseAndJoin();

  std::string key_;
  InnerBuilders inner_;
  std::uint64_t salt_ = 0;  // partition-hash salt derived from cfg.seed
  std::vector<std::unique_ptr<Shard>> shards_;
  KeyId next_coord_id_ = 0;  // global ids handed out by AddCoords
  bool spawned_ = false;  // the worker pool was started
  bool joined_ = false;
  bool finalized_ = false;  // a summary was produced; Finalize re-entry throws
  double inner_s_ = 0.0;  // the shards' s, after the max_bytes halvings
  std::uint32_t degrade_steps_ = 0;  // max_bytes halvings of the inner s
  std::atomic<bool> poisoned_{false};

  // Telemetry instruments (core/telemetry.h), resolved once at
  // construction (registry pointers are process-stable). Per-shard
  // instruments live on the Shard structs.
  telemetry::Histogram* backpressure_wait_ns_ = nullptr;
  telemetry::Histogram* merge_ns_ = nullptr;
};

}  // namespace sas

#endif  // SAS_API_SHARDED_H_
