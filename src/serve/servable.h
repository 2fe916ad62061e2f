// The serving capability behind the registry: the composed key
// "serve:<inner-key>" wraps any sample-backed registered method (including
// the sharded: and windowed: wrappers) in a QueryService. Finalize
// publishes the finalized sample as an immutable ServingSnapshot; when the
// inner method is windowed, every ring advance republishes the merged
// window too — so reader threads keep answering against a fresh,
// consistent view while one ingest thread streams:
//
//   auto builder = MakeSummarizer("serve:windowed:3600:60:obliv", cfg);
//   auto service = builder->AsServable()->service();  // shared_ptr: readers
//                                                     // outlive the builder
//   std::thread reader([service] {
//     QueryService::Reader r(*service);
//     auto snap = r.Acquire();
//     Weight w = snap->EstimateBox(box, &r.scratch());
//   });
//   builder->AsWindowed()->AddTimed(ts, item);        // ingest + republish
//
// Layering: the wrapper is an ingest pass-through. Add, AddBatch,
// AddCoords and AddCoordsKeyed forward unvalidated to the inner builder,
// which validates and counts each record once, and Describe() reports the
// inner builder's IngestStats. The inner method never knows it is being
// served. The windowed republish rides the generic
// WindowedSummarizer::SetPublishHook — the window layer has no serve
// dependency.
//
// Capability rules: the wrapper is not Mergeable (serving is an outermost
// concern — "sharded:2:serve:obliv" is rejected exactly like any other
// non-mergeable inner). Reset(seed) rebuilds the inner builder but
// deliberately does not unpublish: readers keep the last published
// snapshot until the rebuilt builder publishes a new one.

#ifndef SAS_SERVE_SERVABLE_H_
#define SAS_SERVE_SERVABLE_H_

#include <memory>
#include <string>

#include "api/registry.h"
#include "api/summarizer.h"
#include "serve/query_service.h"

namespace sas {

/// The wrapper itself. Construct through MakeSummarizer, which parses the
/// key and hands over how to make the inner builder (api/registry.cc);
/// reach it via Summarizer::AsServable(). Sample-backedness of the inner
/// *summary* is an instance property, checked at Finalize.
class ServableSummarizer : public Summarizer {
 public:
  /// `key` is the composed key reported by the finalized summary's Name();
  /// `make_inner` makes the builder it serves, here under `cfg` and again
  /// at every Reset.
  ServableSummarizer(std::string key, SummarizerFactory make_inner,
                     const SummarizerConfig& cfg);

  void Add(const WeightedKey& item) override { inner_->Add(item); }
  void AddBatch(std::span<const WeightedKey> items) override {
    inner_->AddBatch(items);
  }
  void AddCoords(const Coord* coords, int dims, Weight w) override {
    inner_->AddCoords(coords, dims, w);
  }
  void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                      Weight w) override {
    inner_->AddCoordsKeyed(id, coords, dims, w);
  }

  /// The inner builder's counters: the wrapper admits nothing itself.
  const IngestStats& Describe() const override { return inner_->Describe(); }

  /// Finalizes the inner builder, publishes its sample to the service, and
  /// returns the summary under the composed key. Throws
  /// std::invalid_argument when the inner summary is not sample-backed
  /// (the deterministic baselines) — nothing is published then.
  std::unique_ptr<RangeSummary> Finalize() override;

  /// Serving is an outermost concern; the wrapper does not merge.
  bool Mergeable() const override { return false; }

  /// Replaces the inner builder with a fresh one under `seed`, and always
  /// returns true. The service keeps serving the last published snapshot
  /// (readers are not torn down by a rebuild); the next Finalize/ring
  /// advance republishes.
  bool Reset(std::uint64_t seed) override;

  /// Passes through to the inner windowed wrapper (when the inner key is
  /// windowed:), whose ring advances republish through this wrapper's
  /// service.
  WindowedSummarizer* AsWindowed() override { return inner_->AsWindowed(); }

  ServableSummarizer* AsServable() override { return this; }

  /// The query service reader threads share. A shared_ptr so readers can
  /// outlive the builder that spawned the service.
  std::shared_ptr<QueryService> service() { return service_; }

 private:
  /// Makes inner_ under cfg_ and, when it is windowed, routes its ring
  /// advances to the service.
  void MakeInner();

  std::string key_;
  SummarizerFactory make_inner_;
  std::unique_ptr<Summarizer> inner_;
  std::shared_ptr<QueryService> service_;
};

}  // namespace sas

#endif  // SAS_SERVE_SERVABLE_H_
