#include "api/summary.h"

#include <cstdio>

#include "core/telemetry.h"

namespace sas {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

SummaryInfo RangeSummary::Describe() const {
  SummaryInfo info;
  info.method = Name();
  info.family = "deterministic";
  info.size_elements = SizeInElements();
  return info;
}

SampleSummary::SampleSummary(std::string name, Sample sample)
    : name_(std::move(name)), sample_(std::move(sample)), index_(sample_) {}

SampleSummary::SampleSummary(std::string name, Sample sample,
                             std::vector<double> probs)
    : name_(std::move(name)),
      sample_(std::move(sample)),
      probs_(std::move(probs)),
      index_(sample_) {}

Weight SampleSummary::EstimateQuery(const MultiRangeQuery& q) const {
  // A finalized summary no longer carries its builder's config, so the
  // query-path guard is the process arming alone (one relaxed load).
  static telemetry::Histogram* const estimate_ns =
      telemetry::GetHistogram("sas.query.estimate_ns");
  telemetry::Span span("query.estimate", estimate_ns);
  // One bitmap per querying thread: the summary itself stays immutable,
  // so concurrent queries need no synchronization.
  thread_local PositionBitmap bitmap;
  return index_.Estimate(sample_, q.boxes, &bitmap);
}

SummaryInfo SampleSummary::Describe() const {
  SummaryInfo info;
  info.method = Name();
  info.family = "sample";
  info.size_elements = SizeInElements();
  info.params.emplace_back("tau", FormatDouble(tau()));
  info.params.emplace_back("has_probs", probs_.empty() ? "false" : "true");
  return info;
}

}  // namespace sas
