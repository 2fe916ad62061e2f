// Serve phase: writes beside reads on one served window.
//
// The ingest thread replays the data, pass after pass, into
// serve:windowed:3600:6:obliv with AddTimed, one time slice per Slice()
// call; the readers block between slices. Timestamps are spaced so a
// 600-unit bucket holds 5 s items, so every seal really samples and every
// bucket boundary republishes (seal, merge, snapshot build, epoch swap).
// Two reader threads run a closed loop without think time: TryAcquire,
// ServingSnapshot::EstimateQuery on the next query of the battery,
// release. One read in kCheckEvery is re-checked outside its timed
// interval: the snapshot holds exactly s entries and its accelerated
// estimate is bit-identical to the linear scan of its own sample.
//
// The traced run arms telemetry, splits the reader timing into acquire and
// estimate, and times a direct ServingSnapshot build of every published
// sample; the window's and the service's own histograms give the seal,
// fan-in and publish numbers.

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "common.h"
#include "phases.h"
#include "core/telemetry.h"
#include "serve/query_service.h"
#include "serve/servable.h"
#include "serve/snapshot.h"
#include "window/windowed.h"

namespace sas::e2e {
namespace {

constexpr const char kServeKey[] = "serve:windowed:3600:6:obliv";
constexpr double kBucketSpan = 3600.0 / 6.0;
constexpr std::size_t kBucketFill = 5;  // items per bucket, in units of s
constexpr std::uint64_t kCheckEvery = 64;
constexpr int kReaders = 2;

/// Lets the readers run during a serve slice and blocks them in between,
/// so they take no CPU from the batch phase; kStop ends them.
class ReaderGate {
 public:
  enum Mode : int { kPaused, kActive, kStop };

  void Set(Mode m) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      mode_.store(m, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  /// True to read on; blocks while paused, false once stopped.
  bool WaitActive() {
    if (mode_.load(std::memory_order_relaxed) == kActive) return true;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return mode_.load(std::memory_order_relaxed) != kPaused;
    });
    return mode_.load(std::memory_order_relaxed) == kActive;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> mode_{kPaused};  // written under mu_, read lock-free
};

/// Fixed-size uniform sample of a stream of latencies (Algorithm R), so a
/// fast reader does not grow memory with its read count.
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap, std::uint64_t seed)
      : cap_(cap), state_(seed | 1) {
    values_.reserve(cap);
  }
  void Add(double v) {
    ++seen_;
    if (values_.size() < cap_) {
      values_.push_back(v);
      return;
    }
    // xorshift64: a cheap draw, independent of the library's Rng.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t j = state_ % seen_;
    if (j < cap_) values_[j] = v;
  }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t cap_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

constexpr std::size_t kReservoir = 200000;

struct ReaderStats {
  Reservoir read_us{kReservoir, 11};
  Reservoir acquire_ns{kReservoir, 13};
  Reservoir estimate_ns{kReservoir, 17};
  std::uint64_t reads = 0;
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  double candidates = 0.0;
};

void ReadUntilStopped(QueryService* svc, const QueryBattery* battery,
                      std::size_t s, bool trace, int index,
                      ReaderGate* gate, ReaderStats* st) {
  QueryService::Reader reader(*svc);
  const std::size_t nq = battery->queries.size();
  std::size_t qi = static_cast<std::size_t>(index) * nq / kReaders;
  while (gate->WaitActive()) {
    const MultiRangeQuery& q = battery->queries[qi % nq];
    const double t0 = NowS();
    SnapshotHandle h = reader.TryAcquire();
    const double t1 = NowS();
    if (!h) {  // nothing published yet
      std::this_thread::yield();
      continue;
    }
    const Weight est = h->EstimateQuery(q, &reader.scratch());
    const double t2 = NowS();
    if (st->reads % kCheckEvery == 0) {
      ++st->checked;
      const Weight ref = h->sample().EstimateQuery(q);
      if (h->size() != s || std::bit_cast<std::uint64_t>(est) !=
                                std::bit_cast<std::uint64_t>(ref)) {
        ++st->failed;
      }
      if (trace) {
        for (const Box& box : q.boxes) {
          st->candidates += static_cast<double>(h->CountInBox(box));
        }
      }
    }
    const double t3 = NowS();
    h.Release();
    const double t4 = NowS();
    st->read_us.Add(((t2 - t0) + (t4 - t3)) * 1e6);
    if (trace) {
      st->acquire_ns.Add((t1 - t0) * 1e9);
      st->estimate_ns.Add((t2 - t1) * 1e9);
    }
    ++st->reads;
    ++qi;
  }
}

/// Reader thread entry: a throw ends this reader and counts as one failed
/// read instead of escaping the thread.
void ReaderLoop(QueryService* svc, const QueryBattery* battery, std::size_t s,
                bool trace, int index, ReaderGate* gate, ReaderStats* st) {
  try {
    ReadUntilStopped(svc, battery, s, trace, index, gate, st);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pipeline: reader %d: %s\n", index, e.what());
    ++st->reads;
    ++st->failed;
  }
}

}  // namespace

struct ServePhase::State {
  const Options& opt;
  const Inputs& in;
  Tally* tally;
  std::size_t s;
  double dt;  // timestamp step between consecutive items

  std::unique_ptr<Summarizer> builder;
  WindowedSummarizer* win = nullptr;
  std::shared_ptr<QueryService> svc;
  std::unique_ptr<QueryService::Reader> probe;  // traced run only

  ReaderGate gate;
  std::vector<ReaderStats> stats;
  std::vector<std::thread> readers;

  std::uint64_t fed = 0;      // items ingested so far
  std::int64_t epoch = 0;     // window epoch of the last item
  bool broken = false;        // an ingest call threw; stop ingesting
  double ingest_s = 0.0;      // ingest wall time, traced extras excluded
  double crossing_s = 0.0;    // wall time of the calls that published
  std::vector<double> publish_ms;
  std::vector<double> snapshot_build_ms;
  double retired_pending_max = 0.0;

  State(const Options& o, const WorkloadSpec& sp, const Inputs& i, Tally* t)
      : opt(o),
        in(i),
        tally(t),
        s(sp.window_s),
        dt(kBucketSpan / static_cast<double>(kBucketFill * sp.window_s)),
        stats(kReaders) {}
  State(const State&) = delete;
  State& operator=(const State&) = delete;
  /// Joins the readers (also when the constructor of ServePhase throws
  /// half-way), then drops the probe reader before its service.
  ~State() {
    gate.Set(ReaderGate::kStop);
    for (std::thread& t : readers) {
      if (t.joinable()) t.join();
    }
    probe.reset();
  }

  /// One AddTimed that crossed a bucket boundary: timed, and checked to
  /// have published exactly once. Returns the traced extra seconds spent.
  double Crossing(double ts, const WeightedKey& item);
};

double ServePhase::State::Crossing(double ts, const WeightedKey& item) {
  const std::uint64_t published = svc->publishes();
  const double t0 = NowS();
  win->AddTimed(ts, item);
  const double t1 = NowS();
  crossing_s += t1 - t0;
  publish_ms.push_back((t1 - t0) * 1e3);
  tally->Check(svc->publishes() == published + 1);
  if (!opt.trace) return 0.0;

  retired_pending_max = std::max(
      retired_pending_max, static_cast<double>(svc->retired_pending()));
  Sample copy;
  {
    SnapshotHandle h = probe->Acquire();
    copy = h->sample();
  }
  const double t2 = NowS();
  ServingSnapshot snap(copy);
  const double t3 = NowS();
  snapshot_build_ms.push_back((t3 - t2) * 1e3);
  return NowS() - t1;
}

ServePhase::ServePhase(const Options& opt, const WorkloadSpec& spec,
                       const Inputs& in, Tally* tally)
    : st_(std::make_unique<State>(opt, spec, in, tally)) {
  State& st = *st_;
  SummarizerConfig cfg;
  cfg.s = static_cast<double>(st.s);
  cfg.seed = ForkSeed(opt.seed, 7);
  st.builder = MakeSummarizer(kServeKey, cfg);
  st.win = st.builder->AsWindowed();
  st.svc = st.builder->AsServable()->service();
  st.epoch = st.win->EpochOf(0.0);
  if (opt.trace) st.probe = std::make_unique<QueryService::Reader>(*st.svc);
  for (int r = 0; r < kReaders; ++r) {
    st.readers.emplace_back(ReaderLoop, st.svc.get(), &in.battery, st.s,
                            opt.trace, r, &st.gate,
                            &st.stats[static_cast<std::size_t>(r)]);
  }
}

ServePhase::~ServePhase() = default;

void ServePhase::Slice(double seconds) {
  State& st = *st_;
  if (st.broken) return;
  const std::vector<WeightedKey>& items = st.in.data.items;
  const std::size_t n = items.size();
  constexpr std::uint64_t kClockEvery = 256;
  st.gate.Set(ReaderGate::kActive);
  const double start = NowS();
  double extra_s = 0.0;
  try {
    for (;;) {
      const WeightedKey& it = items[st.fed % n];
      const double ts = static_cast<double>(++st.fed) * st.dt;
      const std::int64_t e = st.win->EpochOf(ts);
      if (e == st.epoch) {
        st.win->AddTimed(ts, it);
      } else {
        st.epoch = e;
        extra_s += st.Crossing(ts, it);
      }
      if (st.fed % kClockEvery == 0 && NowS() - start >= seconds) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pipeline: serve ingest: %s\n", e.what());
    st.tally->Check(false);
    st.broken = true;
  }
  st.ingest_s += NowS() - start - extra_s;
  st.gate.Set(ReaderGate::kPaused);
}

void ServePhase::Report(const telemetry::TelemetrySnapshot& diff,
                        Metrics* out) {
  State& st = *st_;
  st.gate.Set(ReaderGate::kStop);
  for (std::thread& t : st.readers) {
    if (t.joinable()) t.join();
  }

  std::vector<double> read_us, acquire_ns, estimate_ns;
  std::uint64_t reads = 0;
  std::uint64_t checked = 0;
  double candidates = 0.0;
  for (const ReaderStats& rs : st.stats) {
    reads += rs.reads;
    checked += rs.checked;
    candidates += rs.candidates;
    st.tally->attempted.fetch_add(rs.reads);
    st.tally->failed.fetch_add(rs.failed);
    read_us.insert(read_us.end(), rs.read_us.values().begin(),
                   rs.read_us.values().end());
    acquire_ns.insert(acquire_ns.end(), rs.acquire_ns.values().begin(),
                      rs.acquire_ns.values().end());
    estimate_ns.insert(estimate_ns.end(), rs.estimate_ns.values().begin(),
                       rs.estimate_ns.values().end());
  }
  const double fed = static_cast<double>(st.fed);
  const double crossings = static_cast<double>(st.publish_ms.size());
  std::printf("# serve phase: %llu items ingested, %zu publishes, %llu "
              "reads (%llu re-checked) in %.2f s\n",
              static_cast<unsigned long long>(st.fed), st.publish_ms.size(),
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(checked), st.ingest_s);

  if (!st.opt.trace) {
    out->Set("ingest_items_per_s", fed / st.ingest_s, "items/s");
    out->Set("read_us.p50", Quantile(read_us, 0.50), "us");
    out->Set("read_us.p99", Quantile(read_us, 0.99), "us");
    out->Set("publish_ms.p50", Quantile(st.publish_ms, 0.50), "ms");
    out->Set("publish_ms.p90", Quantile(st.publish_ms, 0.90), "ms");
    return;
  }

  const double seal_ms = HistogramMean(diff, "sas.window.seal_ns") * 1e-6;
  const double publish_hist_ms =
      HistogramMean(diff, "sas.serve.publish_ns") * 1e-6;
  out->Set("window.add_ns",
           (st.ingest_s - st.crossing_s) / (fed - crossings) * 1e9, "ns");
  out->Set("window.seal_ms", seal_ms, "ms");
  // The ring merges inside the publishing AddTimed call, outside any span
  // of its own: the merge is that call's time minus seal and publish.
  out->Set("window.merge_ms", Mean(st.publish_ms) - seal_ms - publish_hist_ms,
           "ms");
  out->Set("window.merge_fanin", HistogramMean(diff, "sas.window.merge_fanin"),
           "count");
  out->Set("window.items_per_bucket",
           HistogramMean(diff, "sas.window.bucket_items"), "count");
  out->Set("serve.snapshot_build_ms", Mean(st.snapshot_build_ms), "ms");
  out->Set("serve.publish_ms", publish_hist_ms, "ms");
  out->Set("serve.acquire_ns", Median(acquire_ns), "ns");
  out->Set("serve.estimate_ns", Median(estimate_ns), "ns");
  out->Set("serve.candidates_per_query",
           checked > 0 ? candidates / static_cast<double>(checked) : 0.0,
           "count");
  out->Set("serve.retired_pending_max", st.retired_pending_max, "count");
  out->Set("serve.reclaimed_per_publish",
           static_cast<double>(st.svc->reclaimed()) /
               static_cast<double>(st.svc->publishes()),
           "count");
}

}  // namespace sas::e2e
