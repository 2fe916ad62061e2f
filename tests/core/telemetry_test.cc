// Telemetry subsystem tests (core/telemetry.h): instrument correctness
// (counters, gauges, log2-bucketed histograms with percentile extraction),
// span timing and nesting into the trace rings, snapshot capture/diff, and
// exact multi-threaded counter sums (the suite runs under the CI
// ThreadSanitizer job via the `tsan` ctest label).
//
// The registry is process-global and shared with every other test in this
// binary, so tests use their own uniquely named instruments and assert on
// deltas, never on absolute registry state.

#include "core/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "core/fault.h"

namespace sas {
namespace telemetry {
namespace {

/// Arms (or disarms) telemetry for one test body, restoring the previous
/// state on scope exit so test order never matters.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : was_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(was_); }

 private:
  bool was_;
};

TEST(TelemetryCounter, IncrementsAndReportsExactly) {
  Counter* c = GetCounter("test.counter.basic");
  const std::uint64_t before = c->value();
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value() - before, 42u);
  // Same name resolves to the same instrument (stable pointers).
  EXPECT_EQ(GetCounter("test.counter.basic"), c);
}

TEST(TelemetryGauge, SetAddSubTrackALevel) {
  Gauge* g = GetGauge("test.gauge.basic");
  g->Set(10);
  g->Add(5);
  g->Sub(7);
  EXPECT_EQ(g->value(), 8);
  g->Sub(20);  // signed: transient negative levels are representable
  EXPECT_EQ(g->value(), -12);
}

TEST(TelemetryRegistry, NameReuseAcrossKindsThrows) {
  GetCounter("test.registry.typed-once");
  EXPECT_THROW(GetGauge("test.registry.typed-once"), std::logic_error);
  EXPECT_THROW(GetHistogram("test.registry.typed-once"), std::logic_error);
}

TEST(TelemetryHistogram, BucketBoundariesAreBitWidths) {
  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::BucketFloor(0), 0u);
  EXPECT_EQ(Histogram::BucketFloor(1), 1u);
  EXPECT_EQ(Histogram::BucketFloor(11), 1024u);
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{4096}, std::uint64_t{1} << 40}) {
    const int b = Histogram::BucketOf(v);
    EXPECT_GE(v, Histogram::BucketFloor(b)) << v;
    EXPECT_LT(v, Histogram::BucketFloor(b + 1)) << v;
  }
}

TEST(TelemetryHistogram, ObserveRoutesToTheRightBucketAndTracksMax) {
  Histogram* h = GetHistogram("test.hist.buckets");
  h->Observe(0);    // bucket 0
  h->Observe(1);    // bucket 1
  h->Observe(2);    // bucket 2
  h->Observe(3);    // bucket 2
  h->Observe(600);  // bucket 10: [512, 1024)
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 606u);
  EXPECT_EQ(h->max(), 600u);
  HistogramSnap snap;
  h->SnapshotTo(&snap);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[10], 1u);
}

TEST(TelemetryHistogram, QuantilesBracketTheDistribution) {
  Histogram* h = GetHistogram("test.hist.quantiles");
  // 90 small observations and 10 large ones: p50 sits in the small mass,
  // p99 in the large, and q = 1 is the exact max (not a bucket bound).
  for (int i = 0; i < 90; ++i) h->Observe(1);
  for (int i = 0; i < 10; ++i) h->Observe(1000);
  HistogramSnap snap;
  h->SnapshotTo(&snap);
  EXPECT_GE(snap.Quantile(0.5), 1.0);
  EXPECT_LT(snap.Quantile(0.5), 2.0);  // inside bucket 1 = [1, 2)
  EXPECT_GE(snap.Quantile(0.95), 512.0);  // inside bucket 10 = [512, 1024)
  EXPECT_LE(snap.Quantile(0.95), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);
  // Monotone in q.
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.9));
  EXPECT_LE(snap.Quantile(0.9), snap.Quantile(0.99));
  // Empty histogram: all quantiles are 0.
  HistogramSnap empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(TelemetrySpan, FeedsHistogramAndNestsInTrace) {
  ScopedEnabled on(true);
  ClearTraceEvents();
  Histogram* outer_h = GetHistogram("test.span.outer_ns");
  Histogram* inner_h = GetHistogram("test.span.inner_ns");
  const std::uint64_t outer_before = outer_h->count();
  const std::uint64_t inner_before = inner_h->count();
  std::uint64_t inner_elapsed = 0;
  {
    Span outer("test.outer", outer_h);
    {
      Span inner("test.inner", inner_h);
      // Make the inner interval observable.
      while (inner.ElapsedNs() == 0) {
      }
      inner_elapsed = inner.ElapsedNs();
    }
    EXPECT_GE(outer.ElapsedNs(), inner_elapsed);
  }
  EXPECT_EQ(outer_h->count() - outer_before, 1u);
  EXPECT_EQ(inner_h->count() - inner_before, 1u);
  // Both spans land in the thread ring; the export is one JSON object in
  // Chrome trace-event shape.
  const std::string trace = ChromeTraceJson();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("test.outer"), std::string::npos);
  EXPECT_NE(trace.find("test.inner"), std::string::npos);
  ClearTraceEvents();
  EXPECT_EQ(ChromeTraceJson().find("test.outer"), std::string::npos);
}

TEST(TelemetrySpan, DisarmedSpanObservesNothing) {
  ScopedEnabled off(false);
  Histogram* h = GetHistogram("test.span.disarmed_ns");
  const std::uint64_t before = h->count();
  {
    Span span("test.disarmed", h);
    EXPECT_EQ(span.ElapsedNs(), 0u);
  }
  // The per-builder opt-out (armed = false) disarms even when the global
  // flag is on.
  {
    ScopedEnabled on(true);
    Span span("test.disarmed", h, /*armed=*/false);
    EXPECT_EQ(span.ElapsedNs(), 0u);
  }
  EXPECT_EQ(h->count(), before);
}

TEST(TelemetrySnapshot, DiffSinceSubtractsCountersAndHistograms) {
  Counter* c = GetCounter("test.snap.counter");
  Gauge* g = GetGauge("test.snap.gauge");
  Histogram* h = GetHistogram("test.snap.hist");
  c->Inc(5);
  g->Set(3);
  h->Observe(100);
  const TelemetrySnapshot before = Registry::Global().Capture();
  c->Inc(7);
  g->Set(11);
  h->Observe(200);
  h->Observe(50);
  const TelemetrySnapshot after = Registry::Global().Capture();
  const TelemetrySnapshot diff = after.DiffSince(before);

  const auto counter = [&](const TelemetrySnapshot& s, const char* name)
      -> const CounterSnap* {
    for (const auto& e : s.counters) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  ASSERT_NE(counter(diff, "test.snap.counter"), nullptr);
  EXPECT_EQ(counter(diff, "test.snap.counter")->value, 7u);
  for (const auto& e : diff.gauges) {
    if (e.name == "test.snap.gauge") EXPECT_EQ(e.value, 11);  // level, not Δ
  }
  for (const auto& e : diff.histograms) {
    if (e.name == "test.snap.hist") {
      EXPECT_EQ(e.count, 2u);
      EXPECT_EQ(e.sum, 250u);
      EXPECT_EQ(e.max, 200u);  // later max: the instrument keeps no window
    }
  }
  // A name absent from `earlier` keeps its full value.
  GetCounter("test.snap.fresh")->Inc(9);
  const TelemetrySnapshot later = Registry::Global().Capture();
  const TelemetrySnapshot diff2 = later.DiffSince(before);
  ASSERT_NE(counter(diff2, "test.snap.fresh"), nullptr);
  EXPECT_EQ(counter(diff2, "test.snap.fresh")->value, 9u);
}

TEST(TelemetrySnapshot, FaultHitCountsAreReExported) {
  FaultInjector fi;
  fi.Configure("test.site=delay@1000000:1");  // never due; hits still count
  fi.Hit("test.site");
  fi.Hit("test.site");
  const TelemetrySnapshot snap = CaptureSnapshot(&fi);
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "sas.fault.hits.test.site") {
      EXPECT_EQ(c.value, 2u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryExport, PrometheusAndJsonCarryEveryKind) {
  GetCounter("test.export.counter")->Inc(3);
  GetGauge("test.export.gauge")->Set(-4);
  GetHistogram("test.export.hist_ns")->Observe(1000);
  const TelemetrySnapshot snap = Registry::Global().Capture();
  const std::string prom = ToPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_gauge -4"), std::string::npos);
  EXPECT_NE(prom.find("test_export_hist_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("test_export_hist_ns_count"), std::string::npos);
  const std::string json = ToJson(snap);
  EXPECT_NE(json.find("\"test.export.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.export.gauge\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(TelemetryThreading, ConcurrentCounterSumsAreExact) {
  // Relaxed atomic adds are wait-free and lose nothing: N threads times M
  // increments must sum exactly. The CI ThreadSanitizer job re-runs this
  // suite to certify the no-lock claim.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;
  Counter* c = GetCounter("test.mt.counter");
  Histogram* h = GetHistogram("test.mt.hist");
  const std::uint64_t c_before = c->value();
  const std::uint64_t h_before = h->count();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        c->Inc();
        h->Observe(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value() - c_before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_EQ(h->count() - h_before,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(TelemetryConfig, BuilderOptOutStopsIngestMirroring) {
  ScopedEnabled on(true);
  Counter* accepted = GetCounter("sas.ingest.accepted");
  const std::vector<WeightedKey> items = {
      {1, 2.0, {10, 20}}, {2, 3.0, {30, 40}}, {3, 4.0, {50, 60}}};

  SummarizerConfig cfg;
  cfg.s = 2.0;
  cfg.seed = 1;
  cfg.telemetry = false;
  auto opted_out = MakeSummarizer("obliv", cfg);
  const std::uint64_t before = accepted->value();
  opted_out->AddBatch(items);
  EXPECT_EQ(accepted->value(), before);  // stats_ only, no mirroring
  EXPECT_EQ(opted_out->Describe().accepted, items.size());

  cfg.telemetry = true;
  auto mirrored = MakeSummarizer("obliv", cfg);
  mirrored->AddBatch(items);
  EXPECT_EQ(accepted->value() - before, items.size());
}

TEST(TelemetryConfig, GlobalDisableIsTheDefaultOffSwitch) {
  ScopedEnabled off(false);
  Counter* accepted = GetCounter("sas.ingest.accepted");
  const std::uint64_t before = accepted->value();
  SummarizerConfig cfg;
  cfg.s = 2.0;
  cfg.seed = 1;
  auto builder = MakeSummarizer("obliv", cfg);  // telemetry = true (default)
  builder->AddBatch(
      std::vector<WeightedKey>{{1, 2.0, {10, 20}}, {2, 3.0, {30, 40}}});
  EXPECT_EQ(accepted->value(), before);
}

/// Trace events named `name` in the Chrome-trace export.
int TraceEventCount(const std::string& trace, const std::string& name) {
  const std::string needle = "{\"name\":\"" + name + "\"";
  int count = 0;
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(TelemetryPhaseSpans, ArmedAwareBuildRecordsEachPhaseOnce) {
  ScopedEnabled on(true);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 400; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 13),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
  }
  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.seed = 3;
  const char* const phases[] = {"build.kd", "twopass.partition",
                                "twopass.pass2", "twopass.final"};
  const char* const hists[] = {"sas.build.kd_ns", "sas.twopass.partition_ns",
                               "sas.twopass.pass2_ns", "sas.twopass.final_ns"};
  std::uint64_t before[4];
  for (int k = 0; k < 4; ++k) before[k] = GetHistogram(hists[k])->count();
  ClearTraceEvents();

  auto builder = MakeSummarizer("aware", cfg);
  builder->AddBatch(items);
  (void)builder->Finalize();

  const std::string trace = ChromeTraceJson();
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(GetHistogram(hists[k])->count() - before[k], 1u) << hists[k];
    EXPECT_EQ(TraceEventCount(trace, phases[k]), 1) << phases[k];
  }
  ClearTraceEvents();
}

/// Builds `key` over 400 distinct points with telemetry armed and checks
/// the structure-aware pipeline's phase spans: each build phase once, and
/// `build.kd` exactly `kd_builds` times.
void ExpectBuildPhases(const char* key, int kd_builds) {
  ScopedEnabled on(true);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 400; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 13),
                     {(i * 2654435761ULL) & 0xFFFF, (i * 40503ULL) & 0xFFFF}});
  }
  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.seed = 3;
  const char* const phases[] = {"build.solve_tau", "build.ipps_fill",
                                "build.aggregate", "build.kd"};
  const char* const hists[] = {"sas.build.solve_tau_ns",
                               "sas.build.ipps_fill_ns",
                               "sas.build.aggregate_ns", "sas.build.kd_ns"};
  const std::uint64_t want[] = {1, 1, 1,
                                static_cast<std::uint64_t>(kd_builds)};
  std::uint64_t before[4];
  for (int k = 0; k < 4; ++k) before[k] = GetHistogram(hists[k])->count();
  ClearTraceEvents();

  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  (void)builder->Finalize();

  const std::string trace = ChromeTraceJson();
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(GetHistogram(hists[k])->count() - before[k], want[k])
        << key << ": " << hists[k];
    EXPECT_EQ(TraceEventCount(trace, phases[k]), static_cast<int>(want[k]))
        << key << ": " << phases[k];
  }
  ClearTraceEvents();
}

TEST(TelemetryPhaseSpans, ArmedOrderBuildRecordsEachBuildPhaseOnce) {
  ExpectBuildPhases("order", /*kd_builds=*/0);
}

TEST(TelemetryPhaseSpans, ArmedProductBuildRecordsEachBuildPhaseAndOneKd) {
  ExpectBuildPhases("product", /*kd_builds=*/1);
}

TEST(TelemetryPhaseSpans, ArmedOblivBuildRecordsOneIndexBuild) {
  ScopedEnabled on(true);
  std::vector<WeightedKey> items;
  for (KeyId i = 0; i < 200; ++i) {
    items.push_back({i, 1.0 + static_cast<double>(i % 7), {i * 31, i * 17}});
  }
  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.seed = 5;
  Histogram* const index_build = GetHistogram("sas.query.index_build_ns");
  const std::uint64_t before = index_build->count();
  ClearTraceEvents();

  auto builder = MakeSummarizer("obliv", cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  // Queries reuse the index built at Finalize: no further builds.
  static_cast<void>(summary->EstimateBox({{0, 1000}, {0, 1000}}));

  EXPECT_EQ(index_build->count() - before, 1u);
  EXPECT_EQ(TraceEventCount(ChromeTraceJson(), "query.index_build"), 1);
  ClearTraceEvents();
}

}  // namespace
}  // namespace telemetry
}  // namespace sas
