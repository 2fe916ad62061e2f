// The composition layer (api/compose.h, api/registry.cc): one grammar for
// the sharded: / windowed: / serve: prefixes, the worker-thread cap on
// nested sharded: keys, each record counted once in `sas.ingest.*`, and a
// deterministic mutation test over the key grammar (a hostile-input
// surface): every mutant either builds or throws std::invalid_argument,
// and IsRegisteredSummarizer never throws and never says yes to a key
// MakeSummarizer refuses on the grammar.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "sample_cases.h"
#include "test_util.h"

namespace sas {
namespace {

using test::RandomItems;

class ScopedTelemetry {
 public:
  ScopedTelemetry() : was_(telemetry::Enabled()) {
    telemetry::SetEnabled(true);
  }
  ~ScopedTelemetry() { telemetry::SetEnabled(was_); }

 private:
  bool was_;
};

std::uint64_t CounterSum(const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& c : telemetry::CaptureSnapshot().counters) {
    if (c.name.rfind(prefix, 0) == 0) sum += c.value;
  }
  return sum;
}

TEST(ComposedKey, ErrorsNameTheKeyAndItsGrammar) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"sharded:0:obliv", "sharded:<N>:<inner-key>"},
      {"sharded:2:sharded:x:obliv", "sharded:<N>:<inner-key>"},
      {"windowed:60:4097:obliv", "windowed:<W>:<B>:<inner-key>"},
      {"sharded:2:windowed:1e3:4:obliv", "windowed:<W>:<B>:<inner-key>"},
      {"serve:", "serve:<inner-key>"},
      {"sharded:2:serve:obliv", "serve:<inner-key>"},
  };
  for (const auto& [key, grammar] : cases) {
    try {
      (void)MakeSummarizer(key, cfg);
      ADD_FAILURE() << "no error for " << key;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("\"" + key + "\""), std::string::npos) << what;
      EXPECT_NE(what.find(grammar), std::string::npos) << what;
    }
    EXPECT_FALSE(IsRegisteredSummarizer(key)) << key;
  }
  try {
    (void)MakeSummarizer("sharded:2:no-such-method", cfg);
    ADD_FAILURE() << "no error for an unknown inner key";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"sharded:2:no-such-method\""),
              std::string::npos)
        << e.what();
  }
}

TEST(ComposedKey, ShardProductPastTheThreadCapIsRejected) {
  // Each level's shards build their own inner pools, so nested counts
  // multiply into worker threads; the grammar caps the product at 64
  // before any builder (or thread) exists.
  SummarizerConfig cfg;
  cfg.s = 16.0;
  for (const char* key :
       {"sharded:8:sharded:16:obliv", "sharded:2:windowed:60:4:sharded:64:obliv",
        "sharded:2:sharded:2:sharded:2:sharded:2:sharded:2:sharded:4:obliv",
        "serve:windowed:60:4:sharded:65:obliv"}) {
    EXPECT_THROW((void)MakeSummarizer(key, cfg), std::invalid_argument)
        << key;
    EXPECT_FALSE(IsRegisteredSummarizer(key)) << key;
  }
  // At the cap the key is still registered.
  EXPECT_TRUE(IsRegisteredSummarizer("sharded:8:sharded:8:obliv"));
  EXPECT_TRUE(IsRegisteredSummarizer("windowed:60:4:sharded:64:obliv"));
}

// Every composition counts each record once: the `sas.ingest.*` record
// counters move by exactly what the outermost builder's Describe()
// reports, however deep the nesting.
TEST(ComposedKey, IngestCountedOncePerRecord) {
  ScopedTelemetry armed;
  Rng rng(1000);
  const auto items = RandomItems(1000, 1 << 12, &rng);
  telemetry::Counter* accepted = telemetry::GetCounter("sas.ingest.accepted");
  telemetry::Counter* rejected =
      telemetry::GetCounter("sas.ingest.rejected_weight");
  for (const char* key :
       {"obliv", "sharded:3:obliv", "serve:obliv", "windowed:60:4:obliv",
        "sharded:2:windowed:60:4:obliv", "windowed:60:4:sharded:2:obliv",
        "serve:sharded:2:obliv"}) {
    SummarizerConfig cfg;
    cfg.s = 50.0;
    cfg.seed = 7;
    cfg.ingest_policy = IngestPolicy::kQuarantine;
    auto builder = MakeSummarizer(key, cfg);
    const std::uint64_t accepted_before = accepted->value();
    const std::uint64_t rejected_before = rejected->value();
    builder->AddBatch(items);
    builder->Add({5000, -1.0, {1, 1}});  // quarantined
    EXPECT_EQ(builder->Describe().accepted, items.size()) << key;
    EXPECT_EQ(builder->Describe().rejected_weight, 1u) << key;
    (void)builder->Finalize();
    EXPECT_EQ(accepted->value() - accepted_before, items.size()) << key;
    EXPECT_EQ(rejected->value() - rejected_before, 1u) << key;
  }
}

// Reset is wrapper recovery. A composed key rebuilds its inner builders and
// is then bit-identical to a fresh builder under the new seed, from the
// finalized state too; a leaf key reports false and keeps its config.
TEST(ComposedKey, OnlyWrappersReset) {
  const test::SampleCaseInputs in;
  for (const std::string& key : RegisteredSummarizers()) {
    SummarizerConfig cfg;
    cfg.s = 16.0;
    cfg.seed = 5;
    cfg.bits_x = 12;
    cfg.bits_y = 12;
    if (key.rfind("hierarchy", 0) == 0) {
      cfg.structure = StructureSpec::OverHierarchy(&in.hierarchy);
    } else if (key.rfind("disjoint", 0) == 0) {
      cfg.structure = StructureSpec::Disjoint(in.range_of, 7);
    } else if (key == "nd") {
      cfg.structure = StructureSpec::Nd(2);
    }
    auto builder = MakeSummarizer(key, cfg);
    EXPECT_FALSE(builder->Reset(99)) << key;
    EXPECT_EQ(builder->config().seed, 5u) << key;
  }

  for (const std::string key :
       {"sharded:2:obliv", "windowed:10:2:order", "serve:obliv",
        "serve:windowed:10:2:sharded:2:nd", "sharded:2:windowed:10:2:obliv",
        "serve:sketch"}) {
    // serve:sketch builds, but its summary is not sample-backed, so its
    // Finalize throws; Reset still rebuilds the inner sketch.
    const bool sample_backed = key != "serve:sketch";
    SummarizerConfig cfg;
    cfg.s = 16.0;
    cfg.seed = 5;
    cfg.bits_x = 12;
    cfg.bits_y = 12;
    auto reset = MakeSummarizer(key, cfg);
    reset->AddBatch(in.items);
    if (sample_backed) (void)reset->Finalize();
    ASSERT_TRUE(reset->Reset(99)) << key;
    EXPECT_EQ(reset->config().seed, 99u) << key;
    EXPECT_EQ(reset->Describe().accepted, 0u) << key;
    if (!sample_backed) continue;
    reset->AddBatch(in.items);
    const auto a = reset->Finalize();
    cfg.seed = 99;
    auto fresh = MakeSummarizer(key, cfg);
    fresh->AddBatch(in.items);
    const auto b = fresh->Finalize();
    const Sample& sa = a->AsSample()->sample();
    const Sample& sb = b->AsSample()->sample();
    EXPECT_EQ(sa.tau(), sb.tau()) << key;
    ASSERT_EQ(sa.size(), sb.size()) << key;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.entries()[i].id, sb.entries()[i].id) << key << " " << i;
      EXPECT_EQ(sa.entries()[i].weight, sb.entries()[i].weight)
          << key << " " << i;
    }
  }
}

// Inner builders keep their own instruments: a worker pool inside every
// bucket rebuild still reports the items it ingested.
TEST(ComposedKey, InnerShardPoolKeepsItsTelemetry) {
  ScopedTelemetry armed;
  Rng rng(1001);
  const auto items = RandomItems(1000, 1 << 12, &rng);
  SummarizerConfig cfg;
  cfg.s = 50.0;
  for (int build = 0; build < 2; ++build) {
    const std::uint64_t before = CounterSum("sas.shard.items.");
    auto builder = MakeSummarizer("windowed:60:4:sharded:2:obliv", cfg);
    builder->AddBatch(items);
    (void)builder->Finalize();
    EXPECT_EQ(CounterSum("sas.shard.items.") - before, items.size());
  }
}

// ---------------------------------------------------------------------------
// Deterministic mutation test over the key grammar.

/// The product of the sharded: counts and the number of windowed: levels
/// of `key`, read without the grammar under test. A count that is not a
/// short digit run reads as 1000 (too many threads to construct).
void ReadShape(const std::string& key, long* shard_product, int* windows) {
  *shard_product = 1;
  *windows = 0;
  const std::string sharded = "sharded:";
  for (std::size_t at = key.find(sharded); at != std::string::npos;
       at = key.find(sharded, at + 1)) {
    std::size_t end = at + sharded.size();
    while (end < key.size() && key[end] >= '0' && key[end] <= '9') ++end;
    const std::size_t digits = end - (at + sharded.size());
    long count = 1000;
    if (digits > 0 && digits <= 3) {
      count = std::stol(key.substr(at + sharded.size(), digits));
    }
    *shard_product *= count == 0 ? 1 : count;
    if (*shard_product > 1000) *shard_product = 1000;
  }
  for (std::size_t at = key.find("windowed:"); at != std::string::npos;
       at = key.find("windowed:", at + 1)) {
    ++*windows;
  }
}

/// The numeric fields of `key`: [begin, end) of each run between colons
/// that holds only digits and dots.
std::vector<std::pair<std::size_t, std::size_t>> NumericFields(
    const std::string& key) {
  std::vector<std::pair<std::size_t, std::size_t>> fields;
  std::size_t begin = 0;
  while (begin <= key.size()) {
    std::size_t end = key.find(':', begin);
    if (end == std::string::npos) end = key.size();
    const std::string token = key.substr(begin, end - begin);
    if (!token.empty() &&
        token.find_first_not_of("0123456789.") == std::string::npos) {
      fields.emplace_back(begin, end);
    }
    begin = end + 1;
  }
  return fields;
}

/// Every single-step mutant of `key`.
std::vector<std::string> Mutants(const std::string& key) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < key.size(); ++i) {
    out.push_back(key.substr(0, i));                          // truncate
    out.push_back(key.substr(0, i) + key.substr(i + 1));      // delete
    out.push_back(key.substr(0, i + 1) + key.substr(i));      // duplicate
    for (const char* ins : {":", ".", "-", "e"}) {            // insert
      out.push_back(key.substr(0, i) + ins + key.substr(i));
    }
  }
  for (const auto& [begin, end] : NumericFields(key)) {
    for (const std::string& field :
         {std::string("0"), std::string("65"), std::string("4097"),
          std::string("1e3"), std::string(".5"), std::string("-1"),
          std::string(400, '9')}) {
      out.push_back(key.substr(0, begin) + field + key.substr(end));
    }
  }
  // Repeat a prefix (with its fields) to add nesting.
  for (const std::string prefix : {"sharded:", "windowed:", "serve:"}) {
    const std::size_t at = key.find(prefix);
    if (at == std::string::npos) continue;
    std::size_t end = at + prefix.size();
    const int fields = prefix == "sharded:" ? 1 : prefix == "windowed:" ? 2 : 0;
    for (int f = 0; f < fields && end != std::string::npos; ++f) {
      end = key.find(':', end);
      if (end != std::string::npos) ++end;
    }
    if (end == std::string::npos) continue;
    const std::string layer = key.substr(at, end - at);
    out.push_back(key.substr(0, at) + layer + key.substr(at));
    out.push_back(key.substr(0, at) + layer + layer + key.substr(at));
  }
  return out;
}

TEST(ComposedKeyMutation, EveryMutantBuildsOrThrowsInvalidArgument) {
  const std::vector<std::string> corpus = {
      "sharded:3:obliv",
      "windowed:60:4:obliv",
      "serve:obliv",
      "sharded:2:windowed:60:4:obliv",
      "windowed:60:4:sharded:2:obliv",
      "serve:sharded:2:obliv",
      "serve:windowed:2.5:8:product",
      "sharded:2:sharded:2:order",
      "windowed:0.5:1:aware",
  };
  std::set<std::string> keys;
  for (const std::string& key : corpus) {
    for (const std::string& m : Mutants(key)) keys.insert(m);
  }
  // Second-order mutants from a fixed seed: a mutant of a mutant.
  Rng rng(20110901);
  const std::vector<std::string> first(keys.begin(), keys.end());
  for (int i = 0; i < 400; ++i) {
    const std::string& base = first[rng.Next() % first.size()];
    const std::vector<std::string> next = Mutants(base);
    if (!next.empty()) keys.insert(next[rng.Next() % next.size()]);
  }

  SummarizerConfig cfg;
  cfg.s = 16.0;
  cfg.seed = 5;
  std::size_t built = 0, refused = 0;
  for (const std::string& key : keys) {
    bool registered = false;
    EXPECT_NO_THROW(registered = IsRegisteredSummarizer(key)) << key;
    long shard_product = 0;
    int windows = 0;
    ReadShape(key, &shard_product, &windows);
    if (shard_product > 4 || windows > 1) continue;  // registry check only
    try {
      auto builder = MakeSummarizer(key, cfg);
      ASSERT_NE(builder, nullptr) << key;
      EXPECT_TRUE(registered) << key;
      ++built;
    } catch (const std::invalid_argument&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << key << ": unexpected " << e.what();
    }
  }
  // The corpus exercises both outcomes (about 1,700 distinct mutants, of
  // which some 1,600 are small enough to construct).
  EXPECT_GT(built, 40u);
  EXPECT_GT(refused, 1000u);
}

}  // namespace
}  // namespace sas
