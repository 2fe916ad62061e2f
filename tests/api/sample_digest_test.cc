// Sample digests that pin every sample-backed registry key bit for bit.
//
// Each digest is FNV-1a over the summary's tau bits, its initial
// probability vector's bits, and its entries sorted by id (id, weight bits,
// x, y). Sorting makes the digest independent of the entry order, which
// the sample contract does not fix for every key (docs/keys.md states the
// order per key); everything else about the sample is pinned. The
// constants were recorded before the structure-aware build pipeline was
// unified and must not move under a refactor of it.
//
// The second half pins the one entry order the contract does fix across
// keys: `product` and `nd` at dims = 2 are the same kd construction and
// return equal samples entry for entry.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/random.h"
#include "sample_cases.h"
#include "test_util.h"

namespace sas {
namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t Digest(const SampleSummary& summary) {
  Fnv1a h;
  h.Add(summary.sample().tau());
  h.Add(static_cast<std::uint64_t>(summary.probs().size()));
  for (double p : summary.probs()) h.Add(p);
  std::vector<WeightedKey> entries = summary.sample().entries();
  std::sort(entries.begin(), entries.end(),
            [](const WeightedKey& a, const WeightedKey& b) {
              return a.id < b.id;
            });
  h.Add(static_cast<std::uint64_t>(entries.size()));
  for (const WeightedKey& k : entries) {
    h.Add(static_cast<std::uint64_t>(k.id));
    h.Add(k.weight);
    h.Add(static_cast<std::uint64_t>(k.pt.x));
    h.Add(static_cast<std::uint64_t>(k.pt.y));
  }
  return h.value();
}

std::unique_ptr<RangeSummary> Build(const std::string& key,
                                    const SummarizerConfig& cfg,
                                    const std::vector<WeightedKey>& items) {
  auto builder = MakeSummarizer(key, cfg);
  builder->AddBatch(items);
  return builder->Finalize();
}

/// The larger input: n = 4000 distinct points, s = 300, a random
/// hierarchy over the keys, and 37 disjoint ranges.
struct LargeInputs {
  static constexpr std::size_t kLargeN = 4000;
  std::vector<WeightedKey> items;
  std::vector<WeightedKey> hier_items;
  Hierarchy hierarchy;
  std::vector<int> range_of;

  LargeInputs() : hierarchy(MakeTree()) {
    Rng rng(2026);
    items = test::RandomItems(kLargeN, Coord{1} << 20, &rng);
    for (KeyId k = 0; k < kLargeN; ++k) {
      hier_items.push_back({k, items[k].weight, {k, 0}});
      range_of.push_back(static_cast<int>((k * 7919) % 37));
    }
  }

  static Hierarchy MakeTree() {
    Rng tree_rng(2027);
    return Hierarchy::Random(kLargeN, 5, &tree_rng);
  }

  std::vector<test::MethodCase> Cases() const {
    return {
        {"order", &items, StructureSpec::Order()},
        {"hierarchy", &hier_items, StructureSpec::OverHierarchy(&hierarchy)},
        {"disjoint", &items, StructureSpec::Disjoint(range_of, 37)},
        {"product", &items, StructureSpec::Product()},
        {"nd", &items, StructureSpec::Nd(2)},
        {"aware", &items, StructureSpec::Product()},
        {"order-2p", &items, StructureSpec::Order()},
        {"hierarchy-2p", &hier_items,
         StructureSpec::OverHierarchy(&hierarchy)},
        {"disjoint-2p", &items, StructureSpec::Disjoint(range_of, 37)},
        {"obliv", &items, StructureSpec::Product()},
    };
  }
};

struct Pinned {
  const char* key;
  bool ancestors;  // hierarchy-2p with HierarchyPartition::kAncestors
  std::uint64_t digest;
};

void ExpectDigests(const std::vector<test::MethodCase>& cases,
                   const std::vector<Pinned>& pinned, double s,
                   std::uint64_t seed) {
  std::size_t checked = 0;
  for (const Pinned& want : pinned) {
    const test::MethodCase* c = nullptr;
    for (const test::MethodCase& m : cases) {
      if (m.key == want.key) c = &m;
    }
    ASSERT_NE(c, nullptr) << want.key;
    SummarizerConfig cfg = test::BaseConfig(*c);
    cfg.s = s;
    cfg.seed = seed;
    if (want.ancestors) {
      cfg.hierarchy_partition = HierarchyPartition::kAncestors;
    }
    const auto summary = Build(c->key, cfg, *c->items);
    const SampleSummary* sample = summary->AsSample();
    ASSERT_NE(sample, nullptr) << want.key;
    EXPECT_EQ(Digest(*sample), want.digest)
        << want.key << (want.ancestors ? " (ancestors)" : "") << ": 0x"
        << std::hex << Digest(*sample);
    ++checked;
  }
  EXPECT_EQ(checked, pinned.size());
}

TEST(SampleDigest, EverySampleBackedKeyOnTheSharedCases) {
  const test::SampleCaseInputs in;
  const std::vector<test::MethodCase> cases = test::SampleBackedCases(in);
  const std::vector<Pinned> pinned = {
      {"order", false, 0x30a5ecc7e1041084ULL},
      {"hierarchy", false, 0x2dec71c2e31a2641ULL},
      {"disjoint", false, 0x26a5f87f63e77a2bULL},
      {"product", false, 0xa473e28a836fbc11ULL},
      {"nd", false, 0xa473e28a836fbc11ULL},
      {"aware", false, 0x5d00fd92bca2ba1eULL},
      {"order-2p", false, 0x5059ad65d839d029ULL},
      {"hierarchy-2p", false, 0xfe75dbe78e22536eULL},
      {"hierarchy-2p", true, 0xc21b1b136f3274a8ULL},
      {"disjoint-2p", false, 0xfbebd230b58373b5ULL},
      {"obliv", false, 0xbbde49d0c7da40a0ULL},
      {"sharded:2:obliv", false, 0x4d409f6eb9e4ccc0ULL},
      {"windowed:10:2:obliv", false, 0xb3629999c0b459ebULL},
      {"serve:obliv", false, 0xbbde49d0c7da40a0ULL},
  };
  std::size_t keys_covered = 0;
  for (const test::MethodCase& c : cases) {
    for (const Pinned& p : pinned) {
      keys_covered += c.key == p.key && !p.ancestors;
    }
  }
  EXPECT_EQ(keys_covered, cases.size());
  ExpectDigests(cases, pinned, 32.0, 4242);
}

TEST(SampleDigest, StructureAwareKeysOnALargerInput) {
  const LargeInputs in;
  const std::vector<Pinned> pinned = {
      {"order", false, 0x73f63f21ae012120ULL},
      {"hierarchy", false, 0xeb8d37cccca8bf88ULL},
      {"disjoint", false, 0x47096ebf6fa633a9ULL},
      {"product", false, 0x04ceb76502c213ffULL},
      {"nd", false, 0x04ceb76502c213ffULL},
      {"aware", false, 0x5fc8a56e4c9edc8eULL},
      {"order-2p", false, 0x6fab092cf02f8443ULL},
      {"hierarchy-2p", false, 0x481ae18c9a93688aULL},
      {"hierarchy-2p", true, 0xd7f0e0a6f2f6075aULL},
      {"disjoint-2p", false, 0xb4aaa75d69f96d9dULL},
      {"obliv", false, 0x862e0a317ba57815ULL},
  };
  ExpectDigests(in.Cases(), pinned, 300.0, 99);
}

void ExpectSameSample(const SampleSummary& a, const SampleSummary& b) {
  EXPECT_EQ(a.sample().tau(), b.sample().tau());
  EXPECT_EQ(a.probs(), b.probs());
  const auto& ea = a.sample().entries();
  const auto& eb = b.sample().entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].id, eb[i].id) << "entry " << i;
    EXPECT_EQ(ea[i].weight, eb[i].weight) << "entry " << i;
    EXPECT_EQ(ea[i].pt.x, eb[i].pt.x) << "entry " << i;
    EXPECT_EQ(ea[i].pt.y, eb[i].pt.y) << "entry " << i;
  }
}

TEST(SampleDigest, ProductAndTwoDimensionalNdAreEqualEntryForEntry) {
  const test::SampleCaseInputs small;
  const LargeInputs large;
  struct Input {
    const std::vector<WeightedKey>* items;
    double s;
  };
  for (const Input& in : {Input{&small.items, 32.0}, Input{&large.items, 300.0},
                          Input{&large.items, 1500.0}}) {
    for (std::uint64_t seed : {1ULL, 4242ULL}) {
      SummarizerConfig cfg;
      cfg.s = in.s;
      cfg.seed = seed;
      cfg.structure = StructureSpec::Product();
      const auto product = Build("product", cfg, *in.items);
      cfg.structure = StructureSpec::Nd(2);
      const auto nd = Build("nd", cfg, *in.items);
      ASSERT_NE(product->AsSample(), nullptr);
      ASSERT_NE(nd->AsSample(), nullptr);
      ExpectSameSample(*product->AsSample(), *nd->AsSample());
    }
  }
}

}  // namespace
}  // namespace sas
