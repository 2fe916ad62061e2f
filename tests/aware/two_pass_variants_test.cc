// Tests for the Section 5 two-pass variants beyond the product structure:
// disjoint ranges and hierarchies (linearized and ancestor partitions),
// including that both are positional like their in-memory twins: the
// structure of items[i] is range_of[i] / hierarchy leaf leaf_of_key(i)
// whatever the items' ids (ids far outside [0, n) once read past the end
// of range_of and the hierarchy's leaf table).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/registry.h"
#include "aware/two_pass.h"
#include "core/ipps.h"
#include "core/random.h"
#include "structure/hierarchy.h"

namespace sas {
namespace {

std::vector<WeightedKey> MakeItems(const std::vector<Weight>& w) {
  std::vector<WeightedKey> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(TwoPassDisjoint, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.NextBounded(300);
    const int ranges = 3 + static_cast<int>(rng.NextBounded(20));
    std::vector<Weight> w(n);
    std::vector<int> range_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.NextPareto(1.3);
      range_of[i] = static_cast<int>(rng.NextBounded(ranges));
    }
    const std::size_t s = 5 + rng.NextBounded(30);
    const Sample sample =
        TwoPassDisjointSample(MakeItems(w), range_of, ranges,
                              static_cast<double>(s), TwoPassConfig{}, &rng);
    EXPECT_EQ(sample.size(), s);
  }
}

TEST(TwoPassDisjoint, PerRangeFloorCeilWhp) {
  // Delta < 1 per range w.h.p. with a generous oversampling factor.
  Rng rng(2);
  int violations = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    const std::size_t n = 500;
    const int ranges = 25;
    std::vector<Weight> w(n);
    std::vector<int> range_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.NextPareto(1.3);
      range_of[i] = static_cast<int>(rng.NextBounded(ranges));
    }
    const double s = 25.0;
    TwoPassConfig cfg;
    cfg.sprime_factor = 10.0;
    const Sample sample =
        TwoPassDisjointSample(MakeItems(w), range_of, ranges, s, cfg, &rng);

    const double tau = SolveTau(w, s);
    std::vector<double> probs;
    IppsProbabilities(w, tau, &probs);
    std::vector<double> expected(ranges, 0.0);
    std::vector<int> actual(ranges, 0);
    for (std::size_t i = 0; i < n; ++i) expected[range_of[i]] += probs[i];
    for (const auto& e : sample.entries()) actual[range_of[e.id]]++;
    for (int r = 0; r < ranges; ++r) {
      const bool ok = actual[r] == static_cast<int>(std::floor(expected[r])) ||
                      actual[r] == static_cast<int>(std::ceil(expected[r]));
      if (!ok) {
        ++violations;
        break;
      }
    }
  }
  EXPECT_LE(violations, 10);
}

TEST(TwoPassDisjoint, UnbiasedRangeSum) {
  Rng rng(3);
  const std::size_t n = 200;
  const int ranges = 8;
  std::vector<Weight> w(n);
  std::vector<int> range_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = rng.NextPareto(1.4);
    range_of[i] = static_cast<int>(i % ranges);
  }
  const auto items = MakeItems(w);
  Weight truth = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (range_of[i] == 3) truth += w[i];
  }
  double total = 0.0;
  const int trials = 10000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample = TwoPassDisjointSample(items, range_of, ranges,
                                                20.0, TwoPassConfig{}, &rng);
    total += sample.EstimateSubset(
        [&](const WeightedKey& k) { return range_of[k.id] == 3; });
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.03);
}

class TwoPassHierarchyTest
    : public ::testing::TestWithParam<HierarchyTwoPassVariant> {};

TEST_P(TwoPassHierarchyTest, ExactSampleSize) {
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    Rng tree_rng = rng.Split();
    const std::size_t n = 100 + rng.NextBounded(300);
    const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.3);
    const std::size_t s = 5 + rng.NextBounded(30);
    const Sample sample =
        TwoPassHierarchySample(MakeItems(w), h, static_cast<double>(s),
                               TwoPassConfig{}, GetParam(), &rng);
    EXPECT_EQ(sample.size(), s);
  }
}

TEST_P(TwoPassHierarchyTest, UnbiasedSubtreeSum) {
  Rng tree_rng(5);
  const std::size_t n = 150;
  const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);
  Rng rng(6);
  std::vector<Weight> w(n);
  for (auto& x : w) x = rng.NextPareto(1.4);
  const auto items = MakeItems(w);
  int node = -1;
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (!h.is_leaf(v) && h.leaf_end(v) - h.leaf_begin(v) >= 20 &&
        h.leaf_end(v) - h.leaf_begin(v) <= 80) {
      node = v;
      break;
    }
  }
  ASSERT_GE(node, 0);
  Weight truth = 0.0;
  for (std::size_t r = h.leaf_begin(node); r < h.leaf_end(node); ++r) {
    truth += w[h.key_at_rank(r)];
  }
  double total = 0.0;
  const int trials = 8000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample = TwoPassHierarchySample(items, h, 20.0,
                                                 TwoPassConfig{}, GetParam(),
                                                 &rng);
    total += sample.EstimateSubset([&](const WeightedKey& k) {
      const std::size_t r = h.rank_of_key(k.id);
      return r >= h.leaf_begin(node) && r < h.leaf_end(node);
    });
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.04);
}

TEST_P(TwoPassHierarchyTest, NodeDiscrepancyBounded) {
  // Linearize: Delta < 2 w.h.p.; ancestors: Delta < 1 w.h.p. Count
  // violations over trials with a generous oversampling factor.
  const double bound =
      GetParam() == HierarchyTwoPassVariant::kAncestors ? 1.0 : 2.0;
  Rng tree_rng(7);
  const std::size_t n = 400;
  const Hierarchy h = Hierarchy::Random(n, 4, &tree_rng);
  Rng rng(8);
  int violations = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    std::vector<Weight> w(n);
    for (auto& x : w) x = rng.NextPareto(1.3);
    const double s = 20.0;
    TwoPassConfig cfg;
    cfg.sprime_factor = 10.0;
    const Sample sample =
        TwoPassHierarchySample(MakeItems(w), h, s, cfg, GetParam(), &rng);
    const double tau = SolveTau(w, s);
    std::vector<double> probs;
    IppsProbabilities(w, tau, &probs);
    std::vector<char> flags(n, 0);
    for (const auto& e : sample.entries()) flags[e.id] = 1;
    double worst = 0.0;
    for (int v = 0; v < h.num_nodes(); ++v) {
      double expected = 0.0, actual = 0.0;
      for (std::size_t r = h.leaf_begin(v); r < h.leaf_end(v); ++r) {
        expected += probs[h.key_at_rank(r)];
        actual += flags[h.key_at_rank(r)];
      }
      worst = std::max(worst, std::fabs(actual - expected));
    }
    if (worst >= bound + 1e-9) ++violations;
  }
  EXPECT_LE(violations, trials / 5) << "bound " << bound;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TwoPassHierarchyTest,
    ::testing::Values(HierarchyTwoPassVariant::kLinearize,
                      HierarchyTwoPassVariant::kAncestors),
    [](const ::testing::TestParamInfo<HierarchyTwoPassVariant>& info) {
      return info.param == HierarchyTwoPassVariant::kLinearize
                 ? "linearize"
                 : "ancestors";
    });

/// Builds `key` over the items twice — with ids = positions and with ids
/// 100000 + position — and expects the same sample up to the id shift.
void ExpectPositional(const char* key, SummarizerConfig cfg,
                      const std::vector<WeightedKey>& items) {
  std::vector<WeightedKey> shifted = items;
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    shifted[i].id = static_cast<KeyId>(100000 + i);
  }
  auto plain_builder = MakeSummarizer(key, cfg);
  plain_builder->AddBatch(items);
  const auto plain = plain_builder->Finalize();
  auto shifted_builder = MakeSummarizer(key, cfg);
  shifted_builder->AddBatch(shifted);
  const auto moved = shifted_builder->Finalize();
  const Sample& a = plain->AsSample()->sample();
  const Sample& b = moved->AsSample()->sample();
  EXPECT_EQ(a.tau(), b.tau()) << key;
  ASSERT_EQ(a.size(), b.size()) << key;
  ASSERT_GT(a.size(), 0u) << key;
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a.entries()[e].id + 100000, b.entries()[e].id) << key;
    EXPECT_EQ(a.entries()[e].weight, b.entries()[e].weight) << key;
  }
}

std::vector<WeightedKey> PositionalItems(std::size_t n, Rng* rng) {
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {static_cast<KeyId>(i), rng->NextPareto(1.3),
                {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(TwoPassPositional, DisjointKeyIgnoresIds) {
  Rng rng(71);
  const std::vector<WeightedKey> items = PositionalItems(200, &rng);
  std::vector<int> range_of(items.size());
  for (std::size_t i = 0; i < range_of.size(); ++i) {
    range_of[i] = static_cast<int>(i % 9);
  }
  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.seed = 8;
  cfg.structure = StructureSpec::Disjoint(range_of, 9);
  ExpectPositional("disjoint-2p", cfg, items);
}

TEST(TwoPassPositional, HierarchyKeyIgnoresIdsUnderBothPartitions) {
  Rng rng(72);
  const std::vector<WeightedKey> items = PositionalItems(200, &rng);
  Rng tree_rng(73);
  const Hierarchy h = Hierarchy::Random(items.size(), 4, &tree_rng);
  SummarizerConfig cfg;
  cfg.s = 20.0;
  cfg.seed = 9;
  cfg.structure = StructureSpec::OverHierarchy(&h);
  for (HierarchyPartition partition :
       {HierarchyPartition::kLinearize, HierarchyPartition::kAncestors}) {
    cfg.hierarchy_partition = partition;
    ExpectPositional("hierarchy-2p", cfg, items);
  }
}

}  // namespace
}  // namespace sas
