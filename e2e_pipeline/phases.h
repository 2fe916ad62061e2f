// The two phases of a benchmark run. main.cc interleaves them: one batch
// step, then one serve slice, round after round, so both phases sample the
// whole run rather than one stretch of it.

#ifndef SAS_E2E_PIPELINE_PHASES_H_
#define SAS_E2E_PIPELINE_PHASES_H_

#include <memory>
#include <string>

#include "common.h"
#include "core/telemetry.h"

namespace sas::e2e {

/// Mean and sum of histogram `name` in a telemetry snapshot; 0 when the
/// histogram is absent or empty.
inline double HistogramSum(const telemetry::TelemetrySnapshot& s,
                           const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return static_cast<double>(h.sum);
  }
  return 0.0;
}
inline double HistogramMean(const telemetry::TelemetrySnapshot& s,
                            const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name && h.count > 0) {
      return static_cast<double>(h.sum) / static_cast<double>(h.count);
    }
  }
  return 0.0;
}

/// Batch phase (batch.cc): the data built through the registry under obliv,
/// aware, product and sharded:3:obliv for each seed of a list drawn from
/// --seed; every obliv/aware/product summary answers the query battery.
class BatchPhase {
 public:
  BatchPhase(const Options& opt, const WorkloadSpec& spec, const Inputs& in,
             Tally* tally);
  BatchPhase(const BatchPhase&) = delete;
  BatchPhase& operator=(const BatchPhase&) = delete;
  ~BatchPhase();

  /// Builds every key under the next seed of the list (cycling); returns
  /// the step's wall time in seconds.
  double Step();
  /// True once every seed of the list has been built once.
  bool FirstPassDone() const;
  /// End-to-end metrics, or with --trace 1 the per-layer ones; `diff` is
  /// the telemetry recorded over the run.
  void Report(const telemetry::TelemetrySnapshot& diff, Metrics* out,
              Reconcile* aware, Reconcile* product);

 private:
  struct State;
  std::unique_ptr<State> st_;
};

/// Serve phase (serve.cc): one ingest thread replays the timestamped data
/// into serve:windowed:3600:6:obliv while two reader threads query the
/// published snapshots. Readers block between slices.
class ServePhase {
 public:
  ServePhase(const Options& opt, const WorkloadSpec& spec, const Inputs& in,
             Tally* tally);
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;
  /// Stops and joins the readers.
  ~ServePhase();

  /// Ingests, with the readers running, for `seconds` of wall time.
  void Slice(double seconds);
  /// Stops the readers, then reports like BatchPhase::Report.
  void Report(const telemetry::TelemetrySnapshot& diff, Metrics* out);

 private:
  struct State;
  std::unique_ptr<State> st_;
};

}  // namespace sas::e2e

#endif  // SAS_E2E_PIPELINE_PHASES_H_
