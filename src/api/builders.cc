// Built-in Summarizer implementations: adapters that put every method in
// the library — the in-memory structure-aware samplers, the streaming
// two-pass constructions, and the Section 6 baselines — behind the uniform
// Add/AddBatch/Finalize surface of api/summarizer.h. The registry
// (api/registry.cc) pulls its built-in factory table from here.
//
// Determinism contract: a builder seeded with cfg.seed produces exactly the
// sample a direct call of the underlying function produces with
// Rng rng(cfg.seed) — the registry equivalence tests pin this.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/adapters.h"
#include "api/keys.h"
#include "api/registry.h"
#include "api/summarizer.h"
#include "aware/aware_summarize.h"
#include "aware/summarize_scratch.h"
#include "aware/two_pass.h"
#include "core/random.h"
#include "sampling/stream_varopt.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {

/// Count-Sketch rows per dyadic level pair (the sketch baseline).
constexpr std::size_t kSketchRows = 3;

[[noreturn]] void InvalidConfig(const char* key, const std::string& why) {
  throw std::invalid_argument(std::string("MakeSummarizer(\"") + key +
                              "\"): " + why);
}

/// Base for methods that need the whole input before building.
class BufferingSummarizer : public Summarizer {
 public:
  using Summarizer::Summarizer;

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    items_.push_back(item);
  }
  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      items_.insert(items_.end(), items.begin(), items.end());
      return;
    }
    for (const WeightedKey& it : items) {
      if (AdmitWeight(it.weight)) items_.push_back(it);
    }
  }

 protected:
  std::vector<WeightedKey> items_;
};

// ---------------------------------------------------------------------------
// Structure-aware samplers over a buffered input: the in-memory ones
// (Sections 3 and 4) run the one pipeline, AwareSummarizeInto, and the
// two-pass constructions (Section 5) run both passes over the buffer at
// Finalize — "aware" is the kd kind, the paper's product sampler. The
// structure kind picks the emitter or partition and the config check.

class AwareBuilder : public BufferingSummarizer {
 public:
  AwareBuilder(const char* key, AwareStructure::Kind kind, bool two_pass,
               SummarizerConfig cfg)
      : BufferingSummarizer(std::move(cfg)),
        key_(key),
        kind_(kind),
        two_pass_(two_pass) {}

  bool Mergeable() const override {
    return kind_ == AwareStructure::Kind::kOrder ||
           kind_ == AwareStructure::Kind::kKd;
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    const AwareStructure structure = Structure();
    Rng rng(cfg_.seed);
    if (two_pass_) {
      return std::make_unique<SampleSummary>(key_, TwoPassSample(&rng));
    }
    SummarizeScratch scratch;
    SummarizeOutput out;
    scratch.weights.reserve(items_.size());
    for (const WeightedKey& it : items_) scratch.weights.push_back(it.weight);
    AwareSummarizeInto(scratch.weights, structure, cfg_.s, &rng, &scratch,
                       &out);
    std::vector<WeightedKey> entries;
    entries.reserve(out.chosen.size());
    for (std::uint32_t i : out.chosen) entries.push_back(items_[i]);
    return std::make_unique<SampleSummary>(
        key_, Sample(out.tau, std::move(entries)), std::move(out.probs));
  }

 private:
  /// The structure over the buffered items, after checking that the
  /// configured one has exactly one position per added item.
  AwareStructure Structure() const {
    const StructureSpec& spec = cfg_.structure;
    switch (kind_) {
      case AwareStructure::Kind::kOrder:
        break;
      case AwareStructure::Kind::kHierarchy:
        if (spec.hierarchy->num_keys() != items_.size()) {
          InvalidConfig(key_, "hierarchy has " +
                                  std::to_string(spec.hierarchy->num_keys()) +
                                  " keys but " +
                                  std::to_string(items_.size()) +
                                  " items were added");
        }
        return AwareStructure::OverHierarchy(*spec.hierarchy);
      case AwareStructure::Kind::kDisjoint:
        if (spec.range_of.size() != items_.size()) {
          InvalidConfig(key_,
                        "range_of must have exactly one entry per added item");
        }
        return AwareStructure::Disjoint(spec.range_of, spec.num_ranges);
      case AwareStructure::Kind::kKd:
        return AwareStructure::Kd(items_);
      case AwareStructure::Kind::kShuffled:
        return AwareStructure::Shuffled();
    }
    return AwareStructure::Order(items_);
  }

  Sample TwoPassSample(Rng* rng) const {
    const TwoPassConfig tp{cfg_.sprime_factor};
    const StructureSpec& spec = cfg_.structure;
    switch (kind_) {
      case AwareStructure::Kind::kHierarchy:
        return TwoPassHierarchySample(items_, *spec.hierarchy, cfg_.s, tp,
                                      cfg_.hierarchy_partition, rng);
      case AwareStructure::Kind::kDisjoint:
        return TwoPassDisjointSample(items_, spec.range_of, spec.num_ranges,
                                     cfg_.s, tp, rng);
      case AwareStructure::Kind::kKd:
        return TwoPassProductSample(items_, cfg_.s, tp, rng);
      case AwareStructure::Kind::kOrder:
      case AwareStructure::Kind::kShuffled:
        break;
    }
    return TwoPassOrderSample(items_, cfg_.s, tp, rng);
  }

  const char* key_;
  AwareStructure::Kind kind_;
  bool two_pass_;
};

/// d-dimensional product sampler. Points enter via AddCoords (any d) or via
/// Add (d <= 2, coordinates taken from the item's Point2D).
class NdBuilder : public Summarizer {
 public:
  explicit NdBuilder(SummarizerConfig cfg) : Summarizer(std::move(cfg)) {}

  void Add(const WeightedKey& item) override {
    const int dims = cfg_.structure.dims;
    if (dims > 2) {
      throw std::logic_error(
          "nd summarizer: Add carries only 2 coordinates; use AddCoords "
          "for dims > 2");
    }
    if (!coord_ids_.empty()) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
    if (!AdmitWeight(item.weight)) return;
    coords_.push_back(item.pt.x);
    if (dims == 2) coords_.push_back(item.pt.y);
    weights_.push_back(item.weight);
    originals_.push_back(item);
  }

  void AddBatch(std::span<const WeightedKey> items) override {
    coords_.reserve(coords_.size() +
                    items.size() * (cfg_.structure.dims == 2 ? 2 : 1));
    weights_.reserve(weights_.size() + items.size());
    originals_.reserve(originals_.size() + items.size());
    for (const WeightedKey& it : items) Add(it);
  }

  /// Mergeable via Add and AddCoordsKeyed, whose ids are caller-stable
  /// across a partition. Plain AddCoords synthesizes ids from the builder's
  /// own call count, which a hash partition would collide across shards —
  /// the sharded wrapper therefore assigns global ids itself and routes
  /// through AddCoordsKeyed.
  bool Mergeable() const override { return true; }

  /// The point's id is the number of earlier AddCoords calls that returned
  /// normally: a quarantined point consumes its id, a strict rejection
  /// does not. So ids index the caller's stream, which is how the eval
  /// harness looks sampled points up.
  void AddCoords(const Coord* coords, int dims, Weight w) override {
    AddPoint(next_coord_id_, /*keyed=*/false, coords, dims, w);
    ++next_coord_id_;
  }

  void AddCoordsKeyed(KeyId id, const Coord* coords, int dims,
                      Weight w) override {
    AddPoint(id, /*keyed=*/true, coords, dims, w);
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    const int dims = cfg_.structure.dims;
    Rng rng(cfg_.seed);
    SummarizeScratch scratch;
    SummarizeOutput out;
    AwareSummarizeInto(weights_, AwareStructure::Kd(coords_, dims), cfg_.s,
                       &rng, &scratch, &out);
    std::vector<WeightedKey> entries;
    entries.reserve(out.chosen.size());
    for (std::uint32_t i : out.chosen) {
      if (i < originals_.size()) {
        entries.push_back(originals_[i]);
      } else {
        // Synthesized key for AddCoords input: the point's id, and its
        // point from the first two axes (queries beyond 2-D go through
        // sample()).
        WeightedKey k;
        k.id = coord_ids_[i];
        k.weight = weights_[i];
        k.pt.x = coords_[i * static_cast<std::size_t>(dims)];
        k.pt.y = dims > 1 ? coords_[i * static_cast<std::size_t>(dims) + 1]
                          : 0;
        entries.push_back(k);
      }
    }
    return std::make_unique<SampleSummary>(
        keys::kNd, Sample(out.tau, std::move(entries)), std::move(out.probs));
  }

 private:
  void AddPoint(KeyId id, bool keyed, const Coord* coords, int dims,
                Weight w) {
    if (dims != cfg_.structure.dims) {
      InvalidConfig(keys::kNd, "AddCoords dims does not match structure");
    }
    if (!originals_.empty()) {
      throw std::logic_error("nd summarizer: do not mix Add and AddCoords");
    }
    if (!coord_ids_.empty() && keyed != keyed_) {
      throw std::logic_error(
          "nd summarizer: do not mix AddCoords and AddCoordsKeyed");
    }
    if (!AdmitWeight(w)) return;
    keyed_ = keyed;
    coord_ids_.push_back(id);
    coords_.insert(coords_.end(), coords, coords + dims);
    weights_.push_back(w);
  }

  std::vector<Coord> coords_;
  std::vector<Weight> weights_;
  std::vector<KeyId> coord_ids_;        // empty when fed via Add
  std::vector<WeightedKey> originals_;  // empty when fed via AddCoords
  bool keyed_ = false;       // the coord_ids_ came from AddCoordsKeyed
  KeyId next_coord_id_ = 0;  // the id of the next AddCoords point
};

// ---------------------------------------------------------------------------
// Baselines (Section 6).

class OblivBuilder : public Summarizer {
 public:
  explicit OblivBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(static_cast<std::size_t>(cfg_.s), Rng(cfg_.seed)) {}

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    sketch_.Push(item);
  }

  /// Batched ingest fast path: one virtual dispatch per batch, then the
  /// sketch's non-virtual per-item loop. Falls back to per-record
  /// validation only when the batch pre-scan finds an invalid weight.
  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      sketch_.PushBatch(items);
      return;
    }
    for (const WeightedKey& it : items) Add(it);
  }

  bool Mergeable() const override { return true; }

  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<SampleSummary>(keys::kObliv,
                                           sketch_.TakeSample());
  }

 private:
  StreamVarOpt sketch_;
};

class WaveletBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    Wavelet2D wavelet(items_, static_cast<std::size_t>(cfg_.s), cfg_.bits_x,
                      cfg_.bits_y);
    return std::make_unique<WaveletSummary>(std::move(wavelet));
  }
};

class QDigestBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    QDigest2D digest(items_, cfg_.s, cfg_.bits_x, cfg_.bits_y);
    return std::make_unique<QDigest2DSummary>(std::move(digest));
  }
};

class SketchBuilder : public Summarizer {
 public:
  explicit SketchBuilder(SummarizerConfig cfg)
      : Summarizer(std::move(cfg)),
        sketch_(cfg_.bits_x, cfg_.bits_y, static_cast<std::size_t>(cfg_.s),
                kSketchRows, Rng(cfg_.seed).Next()) {}

  void Add(const WeightedKey& item) override {
    if (!AdmitWeight(item.weight)) return;
    sketch_.Update(item.pt, item.weight);
  }

  void AddBatch(std::span<const WeightedKey> items) override {
    if (AllFinite(items)) {
      CountAccepted(items.size());
      for (const WeightedKey& it : items) sketch_.Update(it.pt, it.weight);
      return;
    }
    for (const WeightedKey& it : items) Add(it);
  }

  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<DyadicSketchSummary>(std::move(sketch_));
  }

 private:
  DyadicSketch sketch_;
};

class ExactBuilder : public BufferingSummarizer {
 public:
  using BufferingSummarizer::BufferingSummarizer;
  std::unique_ptr<RangeSummary> Finalize() override {
    return std::make_unique<ExactSummary>(std::move(items_));
  }
};

// ---------------------------------------------------------------------------
// Config validation helpers (run at MakeSummarizer time, before building).

void RequireHierarchy(const char* key, const SummarizerConfig& cfg) {
  if (cfg.structure.hierarchy == nullptr) {
    InvalidConfig(key, "structure.hierarchy must be set");
  }
}

void RequireDisjoint(const char* key, const SummarizerConfig& cfg) {
  const StructureSpec& spec = cfg.structure;
  if (spec.num_ranges <= 0 || spec.range_of.empty()) {
    InvalidConfig(key, "structure.range_of / num_ranges must describe the "
                       "disjoint ranges");
  }
  for (int r : spec.range_of) {
    if (r < 0 || r >= spec.num_ranges) {
      InvalidConfig(key, "structure.range_of holds range " +
                             std::to_string(r) + " outside [0, num_ranges)");
    }
  }
}

void RequireDims(const char* key, const SummarizerConfig& cfg) {
  if (cfg.structure.dims < 1 || cfg.structure.dims > 16) {
    InvalidConfig(key, "structure.dims must be in [1, 16]");
  }
}

/// Methods whose budget is an integral count (reservoir slots, retained
/// coefficients, counters): fractional s below 1 truncates to a zero
/// budget, which the underlying classes do not support.
void RequireWholeBudget(const char* key, const SummarizerConfig& cfg) {
  if (cfg.s < 1.0) {
    InvalidConfig(key, "summary size s must be >= 1 for this method");
  }
}

void RequireBits(const char* key, const SummarizerConfig& cfg) {
  if (cfg.bits_x < 1 || cfg.bits_x > 63 || cfg.bits_y < 1 ||
      cfg.bits_y > 63) {
    InvalidConfig(key, "bits_x / bits_y must be in [1, 63]");
  }
}

/// Factory of a buffered structure-aware builder; hierarchy and disjoint
/// configs are validated at MakeSummarizer time.
SummarizerFactory Aware(const char* key, AwareStructure::Kind kind,
                        bool two_pass = false) {
  return [key, kind, two_pass](const SummarizerConfig& cfg) {
    if (kind == AwareStructure::Kind::kHierarchy) RequireHierarchy(key, cfg);
    if (kind == AwareStructure::Kind::kDisjoint) RequireDisjoint(key, cfg);
    return std::unique_ptr<Summarizer>(
        new AwareBuilder(key, kind, two_pass, cfg));
  };
}

template <typename Builder>
SummarizerFactory Plain() {
  return [](const SummarizerConfig& cfg) -> std::unique_ptr<Summarizer> {
    return std::make_unique<Builder>(cfg);
  };
}

}  // namespace

namespace internal {

std::vector<std::pair<std::string, SummarizerFactory>> BuiltinSummarizers() {
  std::vector<std::pair<std::string, SummarizerFactory>> builtins;
  builtins.emplace_back(keys::kOrder,
                        Aware(keys::kOrder, AwareStructure::Kind::kOrder));
  builtins.emplace_back(keys::kProduct,
                        Aware(keys::kProduct, AwareStructure::Kind::kKd));
  builtins.emplace_back(
      keys::kHierarchy,
      Aware(keys::kHierarchy, AwareStructure::Kind::kHierarchy));
  builtins.emplace_back(
      keys::kDisjoint, Aware(keys::kDisjoint, AwareStructure::Kind::kDisjoint));
  builtins.emplace_back(keys::kNd, [](const SummarizerConfig& cfg) {
    RequireDims(keys::kNd, cfg);
    return std::unique_ptr<Summarizer>(new NdBuilder(cfg));
  });
  builtins.emplace_back(
      keys::kAware, Aware(keys::kAware, AwareStructure::Kind::kKd, true));
  builtins.emplace_back(
      keys::kOrderTwoPass,
      Aware(keys::kOrderTwoPass, AwareStructure::Kind::kOrder, true));
  builtins.emplace_back(
      keys::kHierarchyTwoPass,
      Aware(keys::kHierarchyTwoPass, AwareStructure::Kind::kHierarchy, true));
  builtins.emplace_back(
      keys::kDisjointTwoPass,
      Aware(keys::kDisjointTwoPass, AwareStructure::Kind::kDisjoint, true));
  builtins.emplace_back(keys::kObliv, [](const SummarizerConfig& cfg) {
    RequireWholeBudget(keys::kObliv, cfg);
    return std::unique_ptr<Summarizer>(new OblivBuilder(cfg));
  });
  builtins.emplace_back(keys::kWavelet, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kWavelet, cfg);
    RequireWholeBudget(keys::kWavelet, cfg);
    return std::unique_ptr<Summarizer>(new WaveletBuilder(cfg));
  });
  builtins.emplace_back(keys::kQDigest, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kQDigest, cfg);
    return std::unique_ptr<Summarizer>(new QDigestBuilder(cfg));
  });
  builtins.emplace_back(keys::kSketch, [](const SummarizerConfig& cfg) {
    RequireBits(keys::kSketch, cfg);
    RequireWholeBudget(keys::kSketch, cfg);
    return std::unique_ptr<Summarizer>(new SketchBuilder(cfg));
  });
  builtins.emplace_back(keys::kExact, Plain<ExactBuilder>());
  return builtins;
}

}  // namespace internal

}  // namespace sas
