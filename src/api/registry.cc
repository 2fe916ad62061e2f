#include "api/registry.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "api/compose.h"
#include "api/sharded.h"
#include "serve/servable.h"
#include "window/windowed.h"

namespace sas {

namespace internal {
// Defined in api/builders.cc; the factories of every built-in method.
std::vector<std::pair<std::string, SummarizerFactory>> BuiltinSummarizers();
}  // namespace internal

/// One wrapper layer of a composed key, with its parsed fields.
struct ComposedLayer {
  enum class Kind { kSharded, kWindowed, kServe };
  Kind kind = Kind::kServe;
  std::size_t begin = 0;  // offset of this layer's own key in the full key
  int count = 0;          // sharded: N; windowed: B
  double span = 0.0;      // windowed: W
};

/// A key split into its wrapper layers (outermost first) and the
/// innermost, registered key. A plain key has no layers.
struct ComposedChain {
  std::string key;
  std::vector<ComposedLayer> layers;
  std::size_t base = 0;  // offset of the innermost key
  SummarizerFactory base_factory;
};

namespace {

std::map<std::string, SummarizerFactory>& Registry() {
  static std::map<std::string, SummarizerFactory> registry;
  return registry;
}

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

void EnsureBuiltins() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    for (auto& [key, factory] : internal::BuiltinSummarizers()) {
      Registry().emplace(key, std::move(factory));
    }
  });
}

[[noreturn]] void RejectKey(const std::string& key, const std::string& why) {
  throw std::invalid_argument("MakeSummarizer(\"" + key + "\"): " + why);
}

/// Checks the method-independent part of the config.
void ValidateCommon(const std::string& key, const SummarizerConfig& cfg) {
  if (!(cfg.s > 0.0) || !std::isfinite(cfg.s)) {
    RejectKey(key, "summary size s must be positive and finite");
  }
  if (!(cfg.sprime_factor >= 1.0) || !std::isfinite(cfg.sprime_factor)) {
    RejectKey(key, "sprime_factor must be >= 1");
  }
}

// ---------------------------------------------------------------------------
// The key grammar: a chain of wrapper prefixes, each with its numeric
// fields, ending in a registered key.

/// A numeric field: a count, an integer in [1, max], or (max == 0) a span,
/// a positive finite decimal of digits with at most one '.'.
struct Field {
  const char* name = nullptr;  // nullptr ends a prefix's field list
  int max = 0;
};

struct Prefix {
  const char* text;
  ComposedLayer::Kind kind;
  const char* grammar;
  Field fields[2];
};

constexpr Prefix kPrefixes[] = {
    {keys::kShardedPrefix, ComposedLayer::Kind::kSharded,
     "sharded:<N>:<inner-key>", {{"shard count", 64}, {}}},
    {keys::kWindowedPrefix, ComposedLayer::Kind::kWindowed,
     "windowed:<W>:<B>:<inner-key>",
     {{"window span", 0}, {"bucket count", 4096}}},
    {keys::kServePrefix, ComposedLayer::Kind::kServe, "serve:<inner-key>",
     {}},
};

/// Worker threads one key may spawn: the product of its sharded: counts.
constexpr long kMaxShardProduct = 64;

/// Parses field `f` from `text`: a count is returned as a whole number, a
/// span as is. `grammar` closes every error message.
double ParseField(const std::string& key, const Field& f,
                  std::string_view text, const std::string& grammar) {
  std::string quoted(1, '"');
  quoted.append(text).push_back('"');
  const char* first = text.data();
  const char* last = first + text.size();
  if (f.max > 0) {
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string_view::npos) {
      RejectKey(key, std::string(f.name) + " " + quoted +
                      " is not a positive integer" + grammar);
    }
    long value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last || value < 1 || value > f.max) {
      RejectKey(key, std::string(f.name) + " must be in [1, " +
                      std::to_string(f.max) + "], got " + quoted + grammar);
    }
    return static_cast<double>(value);
  }
  const std::size_t dot = text.find('.');
  if (text.find_first_not_of("0123456789.") != std::string_view::npos ||
      text.find_first_of("0123456789") == std::string_view::npos ||
      (dot != std::string_view::npos &&
       text.find('.', dot + 1) != std::string_view::npos)) {
    RejectKey(key, std::string(f.name) + " " + quoted +
                    " is not a positive decimal number" + grammar);
  }
  double value = 0.0;  // stays 0 when the text over- or underflows
  std::from_chars(first, last, value, std::chars_format::fixed);
  if (!(value > 0.0) || !std::isfinite(value)) {
    RejectKey(key, std::string(f.name) + " must be positive and finite, got " +
                    quoted + grammar);
  }
  return value;
}

/// The one splitter: walks the whole key chain once. Throws
/// std::invalid_argument naming the key and the offending layer's grammar.
ComposedChain ParseKey(const std::string& key) {
  ComposedChain chain;
  chain.key = key;
  std::size_t pos = 0;
  long shard_product = 1;
  for (;;) {
    const Prefix* p = nullptr;
    for (const Prefix& cand : kPrefixes) {
      if (key.compare(pos, std::strlen(cand.text), cand.text) == 0) p = &cand;
    }
    if (p == nullptr) break;
    const std::string grammar = std::string(" (grammar: ") + p->grammar + ")";
    if (p->kind == ComposedLayer::Kind::kServe && !chain.layers.empty()) {
      RejectKey(key, "serve: must be the outermost prefix (the serving "
                  "wrapper is not mergeable)" + grammar);
    }
    ComposedLayer layer{p->kind, pos};
    pos += std::strlen(p->text);
    double values[2] = {0.0, 0.0};
    for (int i = 0; i < 2 && p->fields[i].name != nullptr; ++i) {
      const std::size_t end = key.find(':', pos);
      if (end == std::string::npos) {
        RejectKey(key, std::string("missing ") + p->fields[i].name +
                        " or inner key" + grammar);
      }
      values[i] = ParseField(key, p->fields[i],
                             std::string_view(key).substr(pos, end - pos),
                             grammar);
      pos = end + 1;
    }
    if (p->kind == ComposedLayer::Kind::kSharded) {
      layer.count = static_cast<int>(values[0]);
      shard_product *= layer.count;
      if (shard_product > kMaxShardProduct) {
        RejectKey(key, "nested sharded: counts multiply past " +
                        std::to_string(kMaxShardProduct) +
                        " worker threads" + grammar);
      }
    } else if (p->kind == ComposedLayer::Kind::kWindowed) {
      layer.span = values[0];
      layer.count = static_cast<int>(values[1]);
      if (!(layer.span / layer.count > 0.0)) {
        RejectKey(key, "window span / bucket count underflows to a "
                    "zero-length bucket" + grammar);
      }
    }
    chain.layers.push_back(layer);
    if (pos == key.size()) RejectKey(key, "empty inner key" + grammar);
  }
  chain.base = pos;
  return chain;
}

/// Builds layer `level` of `chain` (the innermost key once level reaches
/// the layer count) under `cfg`.
std::unique_ptr<Summarizer> MakeLayer(
    const std::shared_ptr<const ComposedChain>& chain, std::size_t level,
    const SummarizerConfig& cfg) {
  if (level == chain->layers.size()) return chain->base_factory(cfg);
  const ComposedLayer& layer = chain->layers[level];
  std::string key = chain->key.substr(layer.begin);
  switch (layer.kind) {
    case ComposedLayer::Kind::kSharded:
      return std::make_unique<ShardedSummarizer>(
          std::move(key), layer.count, cfg, InnerBuilders(chain, level + 1));
    case ComposedLayer::Kind::kWindowed:
      return std::make_unique<WindowedSummarizer>(
          std::move(key), layer.span, layer.count, cfg,
          InnerBuilders(chain, level + 1));
    case ComposedLayer::Kind::kServe:
      break;
  }
  // serve: passes ingest straight to an inner builder that counts it.
  return std::make_unique<ServableSummarizer>(
      std::move(key),
      [chain, level](const SummarizerConfig& inner_cfg) {
        return MakeLayer(chain, level + 1, inner_cfg);
      },
      cfg);
}

}  // namespace

// ---------------------------------------------------------------------------
// The wrapper engines' helpers (api/compose.h).

InnerBuilders::InnerBuilders(std::shared_ptr<const ComposedChain> chain,
                             std::size_t level)
    : chain_(std::move(chain)), level_(level) {
  key_ = chain_->key.substr(level_ < chain_->layers.size()
                                ? chain_->layers[level_].begin
                                : chain_->base);
}

std::unique_ptr<Summarizer> InnerBuilders::Make(const SummarizerConfig& cfg,
                                                std::uint64_t seed,
                                                double s) const {
  const ComposedLayer& wrapper = chain_->layers[level_ - 1];
  SummarizerConfig inner = cfg;
  inner.seed = seed;
  inner.s = s;
  if (wrapper.kind == ComposedLayer::Kind::kWindowed) inner.max_bytes = 0;
  std::unique_ptr<Summarizer> builder = MakeLayer(chain_, level_, inner);
  if (!builder->Mergeable()) {
    RejectKey(chain_->key.substr(wrapper.begin),
           "inner method \"" + key_ +
               "\" is not mergeable (its summary is not a "
               "partition-tolerant VarOpt sample)");
  }
  builder->mirror_ingest_ = false;
  return builder;
}

SampleSummary& InnerSample(RangeSummary& summary, const std::string& key) {
  auto* sample = dynamic_cast<SampleSummary*>(&summary);
  if (sample == nullptr) {
    throw std::invalid_argument(
        "\"" + key + "\": inner summary \"" + summary.Name() +
        "\" is not sample-backed — the wrappers merge and serve samples; "
        "wrap a sampling method (order/product/obliv/..., or a "
        "sharded:/windowed: composition over one)");
  }
  return *sample;
}

std::uint32_t HalveToBudget(const std::string& key, double* s,
                            std::size_t samples, std::size_t max_bytes) {
  // Rough bytes one retained sample entry costs across the build (the
  // entry plus reservoir and probability bookkeeping). Deliberately
  // coarse: the budget is a soft brake on sample-driven growth, not an
  // allocator audit.
  constexpr std::size_t kBytesPerSampleEntry = 64;
  if (max_bytes == 0) return 0;
  const double before = *s;
  std::uint32_t steps = 0;
  while (samples * static_cast<std::size_t>(*s) * kBytesPerSampleEntry >
             max_bytes &&
         *s >= 2.0) {
    *s /= 2.0;
    ++steps;
  }
  if (steps > 0) {
    std::fprintf(stderr,
                 "sas: %s: max_bytes=%zu: degraded s %g -> %g (%u halvings, "
                 "%zu samples retained)\n",
                 key.c_str(), max_bytes, before, *s, steps, samples);
  }
  return steps;
}

// ---------------------------------------------------------------------------

bool RegisterSummarizer(const std::string& key, SummarizerFactory factory) {
  EnsureBuiltins();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().emplace(key, std::move(factory)).second;
}

std::unique_ptr<Summarizer> MakeSummarizer(const std::string& key,
                                           const SummarizerConfig& cfg) {
  EnsureBuiltins();
  ComposedChain chain = ParseKey(key);
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    const auto it = Registry().find(key.substr(chain.base));
    if (it == Registry().end()) {
      RejectKey(key, "unknown method key \"" + key.substr(chain.base) + "\"");
    }
    chain.base_factory = it->second;
  }
  ValidateCommon(key, cfg);
  if (chain.layers.empty()) return chain.base_factory(cfg);
  // serve: is outermost-only, so an innermost serve: layer is the only one;
  // any other innermost layer means a sharded: or windowed: merge.
  if (cfg.s < 1.0 &&
      chain.layers.back().kind != ComposedLayer::Kind::kServe) {
    RejectKey(key, "summary size s must be >= 1 under sharded: or windowed: "
                "(the merged sample budget is integral)");
  }
  return MakeLayer(std::make_shared<const ComposedChain>(std::move(chain)), 0,
                   cfg);
}

std::unique_ptr<RangeSummary> BuildSummary(const std::string& key,
                                           const SummarizerConfig& cfg,
                                           std::span<const WeightedKey> items) {
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  return builder->Finalize();
}

std::vector<std::string> RegisteredSummarizers() {
  EnsureBuiltins();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> out;
  out.reserve(Registry().size());
  for (const auto& [key, factory] : Registry()) out.push_back(key);
  return out;
}

bool IsRegisteredSummarizer(const std::string& key) {
  EnsureBuiltins();
  std::size_t base = 0;
  try {
    base = ParseKey(key).base;
  } catch (const std::invalid_argument&) {
    return false;
  }
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return Registry().contains(key.substr(base));
}

}  // namespace sas
