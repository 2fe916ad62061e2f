// Shared pieces of the end-to-end pipeline benchmark: the run options, the
// generated inputs, wall-clock timing, order statistics, the metric sink
// that becomes the final JSON line, and the attempted/failed tally.
//
// The phases (phases.h) drive the library only through its public
// headers.

#ifndef SAS_E2E_PIPELINE_COMMON_H_
#define SAS_E2E_PIPELINE_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/network_gen.h"
#include "data/query_gen.h"

namespace sas::e2e {

/// One benchmark run as given on the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "paper" (the default) or "smoke": a tiny input for the self-test.
  std::string scale = "paper";
};

/// What a workload runs: the Network generator's configuration and the
/// summary sizes of the batch and serve phases.
struct WorkloadSpec {
  std::string name;
  NetworkConfig data;           // fixed instance: the generator's seed
  std::size_t batch_s = 10000;  // s of the batch builds
  std::size_t window_s = 1000;  // s of the served window
  int build_seeds = 10;         // length of the build seed list
  int queries = 100;            // queries in the battery
  int ranges = 25;              // rectangles per query
};

/// The generated inputs of one run: the data and the query battery with
/// its exact answers.
struct Inputs {
  Dataset2D data;
  QueryBattery battery;
};

/// Wall-clock seconds since an arbitrary origin.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted);
/// 0 for an empty vector.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Attempted and failed operations of a run. Atomic so reader threads can
/// count into the same tally.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  /// Counts one operation; returns `ok` so call sites can branch on it.
  bool Check(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }
};

/// Named metrics in insertion order, rendered into the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  /// One "# name value unit" line per metric, for people reading the log.
  void Print() const;
  std::string ToJson() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Replay reconciliation of one structure-aware key in the traced run:
/// registry builds replayed, replays bit-identical to their build, and
/// |mean phases + residual - mean build| relative to the mean build time.
struct Reconcile {
  int builds = 0;
  int identical = 0;
  double sum_gap = 0.0;
};

}  // namespace sas::e2e

#endif  // SAS_E2E_PIPELINE_COMMON_H_
