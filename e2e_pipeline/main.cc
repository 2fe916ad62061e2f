// End-to-end pipeline benchmark program.
//
//   e2e_pipeline --workload <network|network-40k> --seed <n> --seconds <t>
//                --trace <0|1> [--scale <paper|smoke>]
//
// Every run generates the workload's data and the Fig. 3(c) query battery
// (set-up, repeated three times and reported as the median), then
// alternates two phases through the public registry API (phases.h):
//
//   * batch (batch.cc): obliv, aware, product and sharded:3:obliv builds
//     over a seed list drawn from --seed, each obliv/aware/product summary
//     answering the battery;
//   * serve (serve.cc): a timestamped replay into
//     serve:windowed:3600:6:obliv with two concurrent readers.
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced replay. Human-readable lines go first; the
// last line of standard output is the JSON result
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 means the run
// measured; output checks that fail count as failed operations instead.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"
#include "phases.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "data/network_gen.h"

namespace sas::e2e {

namespace {

/// Resolves a workload name at a scale; throws std::invalid_argument for an
/// unknown workload or scale.
WorkloadSpec ResolveWorkload(const std::string& name,
                             const std::string& scale) {
  WorkloadSpec spec;
  spec.name = name;
  // network: the paper's scale (NetworkConfig defaults: 196k flows, 32-bit
  // axes) at s = 10k. network-40k: the per-figure benches' scale
  // (bench/bench_common.h: 40k flows, 16-bit axes) at s = 1k, the row the
  // ROADMAP measured by hand. Both keep s' = 5s well below n. Twenty seeds:
  // err.* varied 9% (IQR over median) between lists of ten.
  spec.build_seeds = 20;
  if (name == "network-40k") {
    spec.data.num_sources = 8000;
    spec.data.num_dests = 6000;
    spec.data.num_pairs = 40000;
    spec.data.bits = 16;
    spec.batch_s = 1000;
  } else if (name != "network") {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  if (scale == "smoke") {
    spec.data.num_sources = 2000;
    spec.data.num_dests = 2000;
    spec.data.num_pairs = 4000;
    spec.batch_s = 200;
    spec.window_s = 50;
    spec.build_seeds = 2;
    spec.queries = 10;
    spec.ranges = 5;
  } else if (scale != "paper") {
    throw std::invalid_argument("unknown scale \"" + scale + "\"");
  }
  return spec;
}

/// Set-up: data generation plus the exact answers of the battery, timed
/// per step. Both are fixed instances (the generator's default seed, the
/// battery seed of the Fig. 3(c) bench), so every run and every repetition
/// measures the same inputs; --seed draws the sampling randomness.
Inputs Setup(const WorkloadSpec& spec, double* gen_s, double* battery_s) {
  Inputs in;
  const double t0 = NowS();
  in.data = GenerateNetwork(spec.data);
  const double t1 = NowS();
  Rng qrng(1234);
  in.battery = UniformAreaQueries(in.data.items, in.data.domain, spec.queries,
                                  spec.ranges, /*max_frac=*/0.3, &qrng);
  *gen_s = t1 - t0;
  *battery_s = NowS() - t1;
  return in;
}

bool SameInputs(const Inputs& a, const Inputs& b) {
  if (a.data.items.size() != b.data.items.size()) return false;
  for (std::size_t i = 0; i < a.data.items.size(); ++i) {
    const WeightedKey& x = a.data.items[i];
    const WeightedKey& y = b.data.items[i];
    if (x.id != y.id || x.weight != y.weight || !(x.pt == y.pt)) return false;
  }
  if (a.battery.queries.size() != b.battery.queries.size()) return false;
  for (std::size_t q = 0; q < a.battery.queries.size(); ++q) {
    if (a.battery.queries[q].exact != b.battery.queries[q].exact) return false;
  }
  return true;
}

std::string ParseArg(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) {
    throw std::invalid_argument(std::string("missing value for ") + argv[*i]);
  }
  return argv[++*i];
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      opt.workload = ParseArg(argc, argv, &i);
    } else if (flag == "--seed") {
      opt.seed = std::stoull(ParseArg(argc, argv, &i));
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(ParseArg(argc, argv, &i));
    } else if (flag == "--trace") {
      opt.trace = ParseArg(argc, argv, &i) != "0";
    } else if (flag == "--scale") {
      opt.scale = ParseArg(argc, argv, &i);
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload needed");
  if (!(opt.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return opt;
}

void PrintReconcile(const char* key, const Reconcile& r) {
  std::printf("# reconcile %s builds=%d identical=%d sum_gap=%.3g\n", key,
              r.builds, r.identical, r.sum_gap);
}

/// Peak resident set size of the process so far, in MB.
double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

}  // namespace

void Metrics::Print() const {
  for (const Item& m : items_) {
    std::printf("# %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Metrics::ToJson() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) s += ", ";
    s += "\"" + items_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         items_[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace sas::e2e

int main(int argc, char** argv) {
  using namespace sas::e2e;
  Options opt;
  WorkloadSpec spec;
  try {
    opt = ParseOptions(argc, argv);
    spec = ResolveWorkload(opt.workload, opt.scale);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pipeline: %s\n", e.what());
    return 2;
  }

  // Telemetry stays disarmed for the end-to-end run; the traced run arms it
  // inside the phases it measures.
  sas::telemetry::SetEnabled(false);
  Tally tally;
  Metrics metrics;
  Reconcile aware_rec;
  Reconcile product_rec;
  try {
    // Three timed set-ups, spread over the run (start, middle of the first
    // pass, end) like the phases' samples; each must rebuild the same inputs.
    std::vector<double> setup_s, gen_s, battery_s;
    auto timed_setup = [&] {
      double g = 0.0;
      double b = 0.0;
      Inputs next = Setup(spec, &g, &b);
      gen_s.push_back(g);
      battery_s.push_back(b);
      setup_s.push_back(g + b);
      return next;
    };
    const Inputs in = timed_setup();
    std::printf("# workload %s: %zu items, %zu queries x %d rectangles, "
                "data total %.6g\n",
                spec.name.c_str(), in.data.items.size(),
                in.battery.queries.size(), spec.ranges,
                in.battery.data_total);
    // Rounds of one batch step and one serve slice until the first pass over
    // the seed list is done and --seconds have passed. Each slice lasts
    // 2/3 of the step before it, so the serve phase gets 40% of the time
    // whatever a workload's builds cost.
    if (opt.trace) sas::telemetry::SetEnabled(true);
    const sas::telemetry::TelemetrySnapshot before =
        sas::telemetry::CaptureSnapshot();
    BatchPhase batch(opt, spec, in, &tally);
    ServePhase serve(opt, spec, in, &tally);
    const double start = NowS();
    for (int round = 1;; ++round) {
      serve.Slice(batch.Step() * 2.0 / 3.0);
      if (round == spec.build_seeds / 2) {
        tally.Check(SameInputs(in, timed_setup()));
      }
      if (batch.FirstPassDone() && NowS() - start >= opt.seconds) break;
    }
    tally.Check(SameInputs(in, timed_setup()));
    sas::telemetry::SetEnabled(false);
    const sas::telemetry::TelemetrySnapshot diff =
        sas::telemetry::CaptureSnapshot().DiffSince(before);
    batch.Report(diff, &metrics, &aware_rec, &product_rec);
    serve.Report(diff, &metrics);
    if (opt.trace) {
      metrics.Set("data.generate_s", Median(gen_s), "s");
      metrics.Set("data.battery_exact_s", Median(battery_s), "s");
    } else {
      metrics.Set("setup_s", Median(setup_s), "s");
      metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
  } catch (const std::exception& e) {
    // Anything escaping a phase is a failed operation; the run still
    // reports what it measured.
    std::fprintf(stderr, "e2e_pipeline: %s\n", e.what());
    tally.Check(false);
  }
  metrics.Print();
  if (opt.trace) {
    PrintReconcile("aware", aware_rec);
    PrintReconcile("product", product_rec);
  }

  const std::uint64_t attempted = tally.attempted.load();
  const std::uint64_t failed = tally.failed.load();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  return 0;
}
