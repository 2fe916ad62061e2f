#include "serve/servable.h"

#include <utility>
#include <vector>

#include "api/compose.h"
#include "api/summary.h"
#include "window/windowed.h"

namespace sas {

ServableSummarizer::ServableSummarizer(std::string key,
                                       SummarizerFactory make_inner,
                                       const SummarizerConfig& cfg)
    : Summarizer(cfg),
      key_(std::move(key)),
      make_inner_(std::move(make_inner)),
      service_(std::make_shared<QueryService>(
          QueryService::Options{cfg.faults})) {
  MakeInner();
}

void ServableSummarizer::MakeInner() {
  inner_ = make_inner_(cfg_);
  if (WindowedSummarizer* win = inner_->AsWindowed()) {
    // Ring advances republish the merged window; the hook keeps a strong
    // reference so the service survives even if this wrapper is destroyed
    // first (readers hold their own shared_ptr).
    win->SetPublishHook([svc = service_](const Sample& window) {
      svc->Publish(window);
    });
  }
}

std::unique_ptr<RangeSummary> ServableSummarizer::Finalize() {
  std::unique_ptr<RangeSummary> summary = inner_->Finalize();
  SampleSummary& inner = InnerSample(*summary, key_);
  service_->Publish(inner.sample());
  std::vector<double> probs = inner.probs();
  return std::make_unique<SampleSummary>(key_, inner.TakeSample(),
                                         std::move(probs));
}

bool ServableSummarizer::Reset(std::uint64_t seed) {
  cfg_.seed = seed;
  MakeInner();
  return true;
}

}  // namespace sas
