// Sliding-window network monitoring: ingest a timestamped CSV flow trace
// through the windowed backend and answer "last hour" questions while the
// stream is live — the continuous-traffic serving scenario behind the
// "windowed:<W>:<B>:<inner>" registry key.
//
// The program synthesizes a day-fragment of flow records (data/network_gen),
// spreads them over `hours` hours of simulated time, serializes them to the
// CSV trace format of data/trace_reader.h, and replays the trace into
//   windowed:3600:6:obliv
// (a one-hour window at 10-minute bucket granularity). At every hour mark it
// queries the window and checks the estimates against the exact live-window
// traffic: the merged VarOpt sample preserves the window total exactly (up
// to floating point), and box estimates land within sampling tolerance.
// Exits non-zero if any checkpoint total drifts.
//
//   $ ./window_monitor [pairs=30000] [s=1500] [hours=6] [trace=path.csv]
//                      [--telemetry[=json|prom|trace]]
//
// With trace=..., the CSV file is replayed instead of the synthetic trace
// (columns: timestamp,key,weight[,x[,y]]; the exact-total check is applied
// with the same window rule).
//
// --telemetry arms the process metrics registry (core/telemetry.h) and
// prints a final snapshot: a human-readable table by default, Prometheus
// text with =prom, the sas_stats JSON with =json; =trace additionally
// writes the recorded spans to window_monitor_trace.json in Chrome
// trace-event format (load in chrome://tracing or pipe the JSON through
// tools/sas_stats.py).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/telemetry.h"
#include "data/network_gen.h"
#include "data/trace_reader.h"
#include "window/windowed.h"

namespace {

using namespace sas;

constexpr double kHour = 3600.0;

/// Exact total / box sums over the records the window currently covers:
/// the bucket rule (epoch > current epoch - B) applied to each record's
/// ingest epoch. Records are replayed in timestamp order, so the ingest
/// epoch is the timestamp's epoch.
struct WindowExact {
  Weight total = 0.0;
  Weight in_box = 0.0;
};

WindowExact ExactOverWindow(const std::vector<TimedItem>& trace, double now,
                            const WindowedSummarizer& win, const Box& box) {
  WindowExact exact;
  const std::int64_t cur = win.EpochOf(now);
  for (const TimedItem& r : trace) {
    if (r.ts > now) break;  // trace is sorted by timestamp
    if (win.EpochOf(r.ts) <= cur - win.buckets()) continue;  // expired
    if (r.item.weight <= 0.0) continue;
    exact.total += r.item.weight;
    if (box.Contains(r.item.pt)) exact.in_box += r.item.weight;
  }
  return exact;
}

std::string SynthesizeTraceCsv(std::size_t pairs, double total_time,
                               Coord* domain_size) {
  NetworkConfig cfg;
  cfg.num_pairs = pairs;
  cfg.num_sources = pairs / 5;
  cfg.num_dests = pairs / 6;
  cfg.bits = 24;
  const Dataset2D ds = GenerateNetwork(cfg);
  *domain_size = ds.domain.x.size();

  // Spread flow arrivals uniformly over the simulated interval and emit
  // them in time order, the shape a collector's log would have.
  Rng rng(2026);
  std::vector<TimedItem> records;
  records.reserve(ds.items.size());
  for (const WeightedKey& it : ds.items) {
    records.push_back({total_time * rng.NextDouble(), it});
  }
  std::sort(records.begin(), records.end(),
            [](const TimedItem& a, const TimedItem& b) { return a.ts < b.ts; });

  std::ostringstream csv;
  csv << "timestamp,key,bytes,src,dst\n";
  char line[160];
  for (const TimedItem& r : records) {
    std::snprintf(line, sizeof(line), "%.3f,%u,%.3f,%llu,%llu\n", r.ts,
                  r.item.id, r.item.weight,
                  static_cast<unsigned long long>(r.item.pt.x),
                  static_cast<unsigned long long>(r.item.pt.y));
    csv << line;
  }
  return csv.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t pairs = 30000, s = 1500;
  double hours = 6.0;
  std::string trace_path;
  bool telemetry_on = false;
  std::string telemetry_format = "table";  // table | json | prom | trace
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "pairs=", 6) == 0) pairs = std::atol(argv[i] + 6);
    if (std::strncmp(argv[i], "s=", 2) == 0) s = std::atol(argv[i] + 2);
    if (std::strncmp(argv[i], "hours=", 6) == 0) hours = std::atof(argv[i] + 6);
    if (std::strncmp(argv[i], "trace=", 6) == 0) trace_path = argv[i] + 6;
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry_on = true;
    if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry_on = true;
      telemetry_format = argv[i] + 12;
      if (telemetry_format != "json" && telemetry_format != "prom" &&
          telemetry_format != "trace") {
        std::fprintf(stderr,
                     "unknown --telemetry format \"%s\" (json|prom|trace)\n",
                     telemetry_format.c_str());
        return 2;
      }
    }
  }
  if (telemetry_on) telemetry::SetEnabled(true);
  const double total_time = hours * kHour;

  // Assemble the trace stream: a file when given, else the synthetic CSV.
  Coord domain_size = Coord{1} << 24;
  std::ifstream file;
  std::istringstream synthetic;
  std::istream* in = nullptr;
  if (!trace_path.empty()) {
    file.open(trace_path);
    if (!file) {
      std::fprintf(stderr, "cannot open trace file %s\n", trace_path.c_str());
      return 1;
    }
    in = &file;
  } else {
    synthetic.str(SynthesizeTraceCsv(pairs, total_time, &domain_size));
    in = &synthetic;
  }

  // One-hour window at 10-minute bucket granularity over the one-pass
  // oblivious sampler; swap the inner key for any mergeable method.
  const std::string key = "windowed:3600:6:obliv";
  SummarizerConfig cfg;
  cfg.s = static_cast<double>(s);
  cfg.seed = 99;
  // A live collector feed is untrusted input: quarantine corrupt records
  // (counted below) instead of stalling the monitor on the first bad row.
  cfg.ingest_policy = IngestPolicy::kQuarantine;
  auto builder = MakeSummarizer(key, cfg);
  WindowedSummarizer* win = builder->AsWindowed();

  std::printf("replaying trace into %s (s=%zu, %.0f-minute staleness)\n\n",
              key.c_str(), s, win->bucket_span() / 60.0);
  // Watch the quadrant the first flow lands in (the clustered address space
  // concentrates mass unevenly, so a fixed quadrant could be empty).
  Box watch_box{{0, 0}, {0, 0}};
  bool box_chosen = false;

  TraceReader reader(*in);
  std::vector<TimedItem> batch;
  std::vector<TimedItem> replayed;  // retained for the exact checks
  double next_checkpoint = kHour;
  int failures = 0;
  std::printf("%10s %14s %14s %9s %14s %14s %8s\n", "t", "exact-total",
              "est-total", "buckets", "exact-box", "est-box", "box-err");
  auto checkpoint = [&](double t) {
    const Sample& window = win->QueryAt(t);
    const WindowExact exact = ExactOverWindow(replayed, t, *win, watch_box);
    const Weight est_total = window.EstimateTotal();
    const Weight est_box = window.EstimateBox(watch_box);
    const double total_err =
        exact.total > 0.0 ? std::fabs(est_total / exact.total - 1.0) : 0.0;
    const double box_err =
        exact.in_box > 0.0 ? std::fabs(est_box / exact.in_box - 1.0) : 0.0;
    std::printf("%9.0fs %14.1f %14.1f %9d %14.1f %14.1f %7.2f%%\n", t,
                exact.total, est_total, win->live_buckets(), exact.in_box,
                est_box, 100.0 * box_err);
    // The VarOpt merge preserves the live-window total exactly (up to
    // floating-point accumulation); a drift here is a correctness bug.
    if (total_err > 1e-6) {
      std::fprintf(stderr, "FAIL: window total drifted %.3g at t=%.0f\n",
                   total_err, t);
      ++failures;
    }
  };

  while (reader.NextBatch(&batch)) {
    for (const TimedItem& r : batch) {
      if (!box_chosen) {
        const Coord half = domain_size / 2;
        watch_box.x = r.item.pt.x < half ? Interval{0, half}
                                         : Interval{half, domain_size};
        watch_box.y = r.item.pt.y < half ? Interval{0, half}
                                         : Interval{half, domain_size};
        box_chosen = true;
      }
      while (r.ts >= next_checkpoint) {
        checkpoint(next_checkpoint);
        next_checkpoint += kHour;
      }
      win->AddTimed(r.ts, r.item);
      replayed.push_back(r);
    }
  }
  checkpoint(std::max(next_checkpoint - kHour, win->now()));

  const TraceStats& ts = reader.stats();
  const IngestStats& ingest = builder->Describe();
  std::printf("\ntrace: %zu rows parsed, %zu malformed, %zu non-finite\n",
              ts.parsed, ts.malformed, ts.nonfinite);
  if (telemetry_on) {
    const telemetry::TelemetrySnapshot snap = builder->DescribeTelemetry();
    if (telemetry_format == "prom") {
      std::printf("\n%s", telemetry::ToPrometheus(snap).c_str());
    } else if (telemetry_format == "json") {
      std::printf("\n%s\n", telemetry::ToJson(snap).c_str());
    } else {
      std::printf("\ntelemetry snapshot:\n");
      for (const auto& c : snap.counters) {
        if (c.value > 0) {
          std::printf("  %-34s %12llu\n", c.name.c_str(),
                      static_cast<unsigned long long>(c.value));
        }
      }
      for (const auto& g : snap.gauges) {
        if (g.value != 0) {
          std::printf("  %-34s %12lld\n", g.name.c_str(),
                      static_cast<long long>(g.value));
        }
      }
      std::printf("  %-34s %8s %10s %10s %10s %10s\n", "histogram", "count",
                  "p50", "p90", "p99", "max");
      for (const auto& h : snap.histograms) {
        if (h.count == 0) continue;
        std::printf("  %-34s %8llu %10.0f %10.0f %10.0f %10llu\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.count), h.Quantile(0.5),
                    h.Quantile(0.9), h.Quantile(0.99),
                    static_cast<unsigned long long>(h.max));
      }
      if (telemetry_format == "trace") {
        const char* path = "window_monitor_trace.json";
        std::ofstream trace_out(path);
        trace_out << telemetry::ChromeTraceJson();
        std::printf("\nwrote span trace to %s (chrome://tracing)\n", path);
      }
    }
  }
  std::printf("ingest: %llu accepted, %llu quarantined (weight), "
              "%llu quarantined (time), %llu budget degradations\n",
              static_cast<unsigned long long>(ingest.accepted),
              static_cast<unsigned long long>(ingest.rejected_weight),
              static_cast<unsigned long long>(ingest.rejected_coord),
              static_cast<unsigned long long>(ingest.degradations));
  std::printf("window: %zu merges\n", win->merges_performed());
  if (failures > 0) return 1;
  std::printf("all checkpoint totals exact within 1e-6\n");
  return 0;
}
