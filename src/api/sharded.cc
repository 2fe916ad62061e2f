#include "api/sharded.h"

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <utility>

#include "api/summary.h"
#include "aware/merge.h"
#include "core/fault.h"
#include "core/random.h"
#include "core/telemetry.h"

namespace sas {

namespace {

/// Items accumulated on the caller thread before hand-off to a worker.
constexpr std::size_t kBatchSize = 4096;
/// Bounded queue depth per shard; a full queue back-pressures the producer.
constexpr std::size_t kMaxQueueDepth = 4;

constexpr std::uint64_t kPartitionSaltTag = 0x5A5DED5A17E1F00DULL;

std::string BuildShardedErrorMessage(
    const std::string& key, const std::vector<ShardFailure>& failures,
    int num_shards) {
  std::string msg = "MakeSummarizer(\"" + key + "\"): ingest failed in " +
                    std::to_string(failures.size()) + " of " +
                    std::to_string(num_shards) + " shard(s): ";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) msg += "; ";
    msg += "[" + failures[i].message + "]";
  }
  return msg;
}

}  // namespace

ShardedIngestError::ShardedIngestError(const std::string& key,
                                       std::vector<ShardFailure> failures,
                                       int num_shards)
    : std::runtime_error(BuildShardedErrorMessage(key, failures, num_shards)),
      failures_(std::move(failures)) {}

namespace {
std::size_t IndexWithSalt(KeyId id, std::uint64_t salt,
                          std::uint64_t num_shards) {
  return Mix64(static_cast<std::uint64_t>(id) ^ salt) % num_shards;
}
}  // namespace

std::size_t ShardIndex(KeyId id, std::uint64_t seed, int num_shards) {
  return IndexWithSalt(id, Mix64(seed ^ kPartitionSaltTag),
                       static_cast<std::uint64_t>(num_shards));
}

// ---------------------------------------------------------------------------

/// One hand-off unit: 2-D items plus keyed d-dimensional points (the two
/// ingest surfaces share the queue so per-shard arrival order is
/// preserved). Points are flat and aligned: point j occupies
/// coords[j*dims .. j*dims+dims) with id coord_ids[j] and weight
/// coord_weights[j].
struct ShardedSummarizer::Batch {
  std::vector<WeightedKey> items;
  std::vector<Coord> coords;
  std::vector<KeyId> coord_ids;
  std::vector<Weight> coord_weights;
  int dims = 0;

  std::size_t size() const { return items.size() + coord_ids.size(); }
  bool empty() const { return items.empty() && coord_ids.empty(); }
  void clear() {
    items.clear();
    coords.clear();
    coord_ids.clear();
    coord_weights.clear();
    dims = 0;
  }
};

struct ShardedSummarizer::Shard {
  int index = 0;
  std::unique_ptr<Summarizer> inner;

  // Producer side: accumulation buffer filled by the caller thread.
  Batch pending;

  // Hand-off queue (guarded by mu). `spare` recycles drained buffers back
  // to the producer so steady-state ingest allocates nothing.
  std::mutex mu;
  std::condition_variable can_push;
  std::condition_variable can_pop;
  std::deque<Batch> queue;
  std::vector<Batch> spare;
  bool closed = false;
  std::exception_ptr error;
  std::string error_what;  // shard-index-prefixed message for aggregation

  // Worker side.
  std::thread worker;
  std::unique_ptr<RangeSummary> result;

  // Telemetry instruments for this shard lane (resolved at construction;
  // updates are guarded by telemetry::Enabled()).
  telemetry::Gauge* queue_depth = nullptr;
  telemetry::Counter* batches = nullptr;
  telemetry::Counter* items = nullptr;
};

ShardedSummarizer::ShardedSummarizer(std::string key, int num_shards,
                                     const SummarizerConfig& cfg,
                                     InnerBuilders inner)
    : Summarizer(cfg), key_(std::move(key)), inner_(std::move(inner)) {
  // Memory-budget degradation (SummarizerConfig::max_bytes): each worker
  // retains a sample of expected size inner s, so the inner s is halved
  // once, here, until N such samples fit. Estimates stay unbiased at the
  // smaller s.
  double inner_s = cfg.s;
  degrade_steps_ = HalveToBudget(key_, &inner_s,
                                 static_cast<std::size_t>(num_shards),
                                 cfg.max_bytes);
  CountDegradation(degrade_steps_);
  // Cached salt of the ShardIndex partition hash (see its doc for why the
  // partition is seed-salted).
  salt_ = Mix64(cfg.seed ^ kPartitionSaltTag);
  // Cold registry lookups; the hot paths only touch the cached pointers.
  backpressure_wait_ns_ =
      telemetry::GetHistogram("sas.shard.backpressure_wait_ns");
  merge_ns_ = telemetry::GetHistogram("sas.shard.merge_ns");
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    const std::string lane = std::to_string(i);
    sh->queue_depth = telemetry::GetGauge("sas.shard.queue_depth." + lane);
    sh->batches = telemetry::GetCounter("sas.shard.batches." + lane);
    sh->items = telemetry::GetCounter("sas.shard.items." + lane);
    sh->inner = inner_.Make(
        cfg, ForkSeed(cfg.seed, static_cast<std::uint64_t>(i)), inner_s);
    sh->pending.items.reserve(kBatchSize);
    shards_.push_back(std::move(sh));
  }
}

ShardedSummarizer::~ShardedSummarizer() { CloseAndJoin(); }

void ShardedSummarizer::SpawnWorkers() {
  if (spawned_) return;
  spawned_ = true;
  try {
    for (auto& sh : shards_) {
      sh->worker = std::thread(&ShardedSummarizer::WorkerLoop, this,
                               sh.get());
    }
    // sas-lint: allow(catch-all): thread spawn can fail with non-standard
    // exceptions; workers already running must be joined before the Shard
    // structs are destroyed, then the original error propagates.
  } catch (...) {
    // Thread creation failed partway (e.g. RLIMIT_NPROC): close and join
    // the workers already running before the Shard structs are destroyed.
    CloseAndJoin();
    throw;
  }
}

ShardedSummarizer::Shard& ShardedSummarizer::ShardOf(KeyId id) {
  return *shards_[IndexWithSalt(id, salt_, shards_.size())];
}

void ShardedSummarizer::RequireHealthy(const char* call) const {
  if (joined_) {
    throw std::logic_error(std::string("sharded summarizer: ") + call +
                           " after Finalize (builders are spent once "
                           "finalized)");
  }
  if (poisoned()) {
    throw std::runtime_error(
        std::string("sharded summarizer: ") + call +
        " on a poisoned builder (a shard worker failed; call Finalize() "
        "for the full failure list, or Reset(seed) to recover)");
  }
}

void ShardedSummarizer::Add(const WeightedKey& item) {
  RequireHealthy("Add");
  if (!AdmitWeight(item.weight)) return;
  Shard& sh = ShardOf(item.id);
  sh.pending.items.push_back(item);
  if (sh.pending.size() >= kBatchSize) FlushPending(sh);
}

void ShardedSummarizer::AddCoords(const Coord* coords, int dims, Weight w) {
  AddCoordsKeyed(next_coord_id_++, coords, dims, w);
}

void ShardedSummarizer::AddCoordsKeyed(KeyId id, const Coord* coords,
                                       int dims, Weight w) {
  RequireHealthy("AddCoords");
  if (!AdmitWeight(w)) return;
  Shard& sh = ShardOf(id);
  // The flat coord layout needs one dims per batch; a (pathological) dims
  // change mid-stream just cuts the current batch short. The inner builder
  // is the one that validates dims against the structure.
  if (sh.pending.dims != 0 && sh.pending.dims != dims) FlushPending(sh);
  sh.pending.dims = dims;
  sh.pending.coord_ids.push_back(id);
  sh.pending.coord_weights.push_back(w);
  sh.pending.coords.insert(sh.pending.coords.end(), coords, coords + dims);
  if (sh.pending.size() >= kBatchSize) FlushPending(sh);
}

void ShardedSummarizer::FlushPending(Shard& sh) {
  if (sh.pending.empty()) return;
  Batch next;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.spare.empty()) {
      next = std::move(sh.spare.back());
      sh.spare.pop_back();
    }
  }
  next.items.reserve(kBatchSize);
  Enqueue(sh, std::exchange(sh.pending, std::move(next)));
}

void ShardedSummarizer::Enqueue(Shard& sh, Batch batch) {
  // shard.queue.push fires only on producer-path pushes, not on the final
  // flush inside CloseAndJoin — a throw there would escape Finalize (or
  // the destructor) after teardown already began. The first producer-path
  // push starts the worker pool.
  if (!joined_) {
    FaultPoint(cfg_.faults.get(), fault_sites::kShardQueuePush, sh.index);
    SpawnWorkers();
  }
  std::unique_lock<std::mutex> lock(sh.mu);
  const auto can_proceed = [&] {
    return sh.queue.size() < kMaxQueueDepth || sh.error != nullptr ||
           sh.closed;
  };
  // Back-pressure visibility: when the producer actually blocks on a full
  // queue, the wall time spent waiting lands in the wait histogram —
  // unblocked pushes record nothing, so the metric measures stalls only.
  if (!can_proceed() && telemetry::Enabled()) {
    const std::uint64_t t0 = telemetry::NowNs();
    sh.can_push.wait(lock, can_proceed);
    backpressure_wait_ns_->Observe(telemetry::NowNs() - t0);
  } else {
    sh.can_push.wait(lock, can_proceed);
  }
  // A dead worker (error) or a closed queue drains nothing; drop the batch
  // rather than blocking forever — Finalize rethrows worker errors.
  if (sh.error != nullptr || sh.closed) return;
  sh.queue.push_back(std::move(batch));
  if (telemetry::Enabled()) {
    sh.queue_depth->Set(static_cast<std::int64_t>(sh.queue.size()));
  }
  sh.can_pop.notify_one();
}

void ShardedSummarizer::WorkerLoop(Shard* sh) {
  try {
    for (;;) {
      Batch batch;
      {
        std::unique_lock<std::mutex> lock(sh->mu);
        sh->can_pop.wait(lock,
                         [&] { return !sh->queue.empty() || sh->closed; });
        if (sh->queue.empty()) break;  // closed and fully drained
        batch = std::move(sh->queue.front());
        sh->queue.pop_front();
        if (telemetry::Enabled()) {
          sh->queue_depth->Set(static_cast<std::int64_t>(sh->queue.size()));
        }
        sh->can_push.notify_one();
      }
      FaultPoint(cfg_.faults.get(), fault_sites::kShardWorkerBatch,
                 sh->index);
      if (telemetry::Enabled()) {
        sh->batches->Inc();
        sh->items->Inc(batch.size());
      }
      if (!batch.items.empty()) sh->inner->AddBatch(batch.items);
      const std::size_t ud = static_cast<std::size_t>(batch.dims);
      for (std::size_t j = 0; j < batch.coord_ids.size(); ++j) {
        sh->inner->AddCoordsKeyed(batch.coord_ids[j],
                                  batch.coords.data() + j * ud, batch.dims,
                                  batch.coord_weights[j]);
      }
      batch.clear();
      {
        std::lock_guard<std::mutex> lock(sh->mu);
        if (sh->spare.size() < kMaxQueueDepth) {
          sh->spare.push_back(std::move(batch));
        }
      }
    }
    FaultPoint(cfg_.faults.get(), fault_sites::kShardWorkerFinalize,
               sh->index);
    sh->result = sh->inner->Finalize();
  } catch (const std::exception& e) {
    RecordWorkerError(sh, e.what());
    // sas-lint: allow(catch-all): worker threads must never let an
    // exception escape (std::terminate); non-standard exceptions are
    // recorded with a placeholder message and reported from Finalize.
  } catch (...) {
    RecordWorkerError(sh, "non-standard exception");
  }
}

void ShardedSummarizer::RecordWorkerError(Shard* sh,
                                          const std::string& what) {
  // Poison first (release pairs with the acquire in poisoned()) so a
  // producer seeing an unblocked queue also sees the failure.
  poisoned_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(sh->mu);
  sh->error = std::current_exception();
  sh->error_what = "shard " + std::to_string(sh->index) + " (inner \"" +
                   inner_.key() + "\"): " + what;
  // A dead worker drains nothing more: drop queued batches and unblock a
  // producer waiting on back-pressure (Enqueue rechecks error and bails).
  sh->queue.clear();
  sh->can_push.notify_all();
}

void ShardedSummarizer::CloseAndJoin() {
  if (joined_) return;
  joined_ = true;
  if (!spawned_) return;  // nothing was handed off: no workers to join
  for (auto& sh : shards_) FlushPending(*sh);
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->closed = true;
    sh->can_pop.notify_one();
  }
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) sh->worker.join();
  }
}

std::unique_ptr<RangeSummary> ShardedSummarizer::Finalize() {
  // Re-entry guard: a successful Finalize moves the shard samples into the
  // merge, so a second call would silently merge moved-from (empty) shards.
  // A *failed* Finalize (poisoned builder) stays callable — its contract is
  // to report the full failure list on every call until Reset.
  if (finalized_) {
    throw std::logic_error(
        "sharded summarizer: Finalize after Finalize (the builder already "
        "produced its summary; Reset(seed) to build another)");
  }
  SpawnWorkers();  // a build that handed nothing off still finalizes
  CloseAndJoin();
  std::vector<ShardFailure> failures;
  for (auto& sh : shards_) {
    if (sh->error != nullptr) {
      failures.push_back({sh->index, sh->error_what});
    }
  }
  if (!failures.empty()) {
    throw ShardedIngestError(key_, std::move(failures), num_shards());
  }

  std::vector<Sample> parts;
  std::vector<const Sample*> part_ptrs;
  parts.reserve(shards_.size());
  for (auto& sh : shards_) {
    // We own the result: move the sample out, not copy.
    parts.push_back(InnerSample(*sh->result, key_).TakeSample());
  }
  for (const Sample& part : parts) part_ptrs.push_back(&part);

  Rng merge_rng(ForkSeed(cfg_.seed, shards_.size()));
  telemetry::Span merge_span("shard.merge", merge_ns_);
  MergeScratch scratch;
  Sample merged = MergeSamples(part_ptrs, static_cast<std::size_t>(cfg_.s),
                               &merge_rng, &scratch);
  finalized_ = true;
  return std::make_unique<SampleSummary>(key_, std::move(merged));
}

bool ShardedSummarizer::Reset(std::uint64_t seed) {
  CloseAndJoin();
  // All-or-nothing probe: shard inners are instances of one method, so the
  // first refusal means none of them recycle — bail before touching state
  // (the builder stays spent, as after any Finalize).
  for (auto& sh : shards_) {
    if (!sh->inner->Reset(ForkSeed(seed, static_cast<std::uint64_t>(
                                             sh->index)))) {
      return false;
    }
  }
  for (auto& sh : shards_) {
    sh->pending.clear();
    sh->queue.clear();
    sh->closed = false;
    sh->error = nullptr;
    sh->error_what.clear();
    sh->result.reset();
  }
  cfg_.seed = seed;
  salt_ = Mix64(seed ^ kPartitionSaltTag);
  next_coord_id_ = 0;
  stats_ = IngestStats{};
  stats_.degradations = degrade_steps_;
  poisoned_.store(false, std::memory_order_release);
  joined_ = false;
  finalized_ = false;
  spawned_ = false;
  return true;
}

}  // namespace sas
