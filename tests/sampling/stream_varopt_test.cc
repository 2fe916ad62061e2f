#include "sampling/stream_varopt.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/ipps.h"
#include "core/random.h"

namespace sas {
namespace {

std::vector<WeightedKey> MakeItems(const std::vector<Weight>& w) {
  std::vector<WeightedKey> items(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    items[i] = {static_cast<KeyId>(i), w[i], {static_cast<Coord>(i), 0}};
  }
  return items;
}

TEST(StreamVarOpt, WarmupKeepsEverything) {
  StreamVarOpt sv(10, Rng(1));
  for (const auto& it : MakeItems({1, 2, 3, 4, 5})) sv.Push(it);
  EXPECT_EQ(sv.size(), 5u);
  EXPECT_DOUBLE_EQ(sv.tau(), 0.0);
  EXPECT_DOUBLE_EQ(sv.ToSample().EstimateTotal(), 15.0);
}

TEST(StreamVarOpt, ExactSizeAfterOverflow) {
  Rng rng(2);
  StreamVarOpt sv(16, Rng(3));
  for (int i = 0; i < 1000; ++i) {
    sv.Push({static_cast<KeyId>(i), rng.NextPareto(1.2),
             {static_cast<Coord>(i), 0}});
    if (i >= 16) {
      EXPECT_EQ(sv.size(), 16u);
    }
  }
}

TEST(StreamVarOpt, ThresholdMatchesOfflineTau) {
  Rng rng(4);
  std::vector<Weight> w(500);
  for (auto& x : w) x = rng.NextPareto(1.3);
  StreamVarOpt sv(20, Rng(5));
  for (const auto& it : MakeItems(w)) sv.Push(it);
  // The final VarOpt threshold solves the same IPPS equation.
  EXPECT_NEAR(sv.tau(), SolveTau(w, 20.0), 1e-9 * (1.0 + sv.tau()));
}

TEST(StreamVarOpt, ZeroWeightIgnored) {
  StreamVarOpt sv(4, Rng(6));
  sv.Push({0, 0.0, {0, 0}});
  EXPECT_EQ(sv.size(), 0u);
  EXPECT_EQ(sv.items_seen(), 0u);
}

TEST(StreamVarOpt, InclusionFrequencyMatchesIpps) {
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  const auto items = MakeItems(w);
  std::vector<int> hits(w.size(), 0);
  const int trials = 60000;
  Rng seeder(7);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(3, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.012)
        << "key " << i;
  }
}

TEST(StreamVarOpt, InclusionFrequencyUniformWeights) {
  // Uniform weights reduce to reservoir sampling: every key kept with
  // probability s/n.
  const std::size_t n = 50, s = 10;
  const auto items = MakeItems(std::vector<Weight>(n, 1.0));
  std::vector<int> hits(n, 0);
  const int trials = 40000;
  Rng seeder(8);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(s, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials, 0.2, 0.012)
        << "key " << i;
  }
}

TEST(StreamVarOpt, UnbiasedSubsetSum) {
  Rng rng(9);
  std::vector<Weight> w(60);
  for (auto& x : w) x = rng.NextPareto(1.5);
  const auto items = MakeItems(w);
  Weight truth = 0.0;
  for (std::size_t i = 0; i < 30; ++i) truth += w[i];
  const Box subset{{0, 30}, {0, 1}};

  double total = 0.0;
  const int trials = 40000;
  Rng seeder(10);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(12, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    total += sv.ToSample().EstimateBox(subset);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.02);
}

TEST(StreamVarOpt, HeavyKeysAlwaysKept) {
  Rng rng(11);
  std::vector<Weight> w(100, 1.0);
  w[42] = 500.0;
  const auto items = MakeItems(w);
  for (int t = 0; t < 50; ++t) {
    StreamVarOpt sv(8, Rng(1000 + t));
    for (const auto& it : items) sv.Push(it);
    bool found = false;
    const Sample sample = sv.ToSample();
    for (const auto& e : sample.entries()) found |= e.id == 42;
    EXPECT_TRUE(found);
  }
}

TEST(StreamVarOpt, TotalEstimateUnbiased) {
  Rng rng(12);
  std::vector<Weight> w(200);
  double truth = 0.0;
  for (auto& x : w) {
    x = rng.NextPareto(1.1);
    truth += x;
  }
  const auto items = MakeItems(w);
  double total = 0.0;
  const int trials = 20000;
  Rng seeder(13);
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(25, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    total += sv.ToSample().EstimateTotal();
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.01);
}

TEST(StreamVarOpt, PushBatchMatchesPush) {
  Rng rng(15);
  std::vector<Weight> w(300);
  for (auto& x : w) x = rng.NextPareto(1.2);
  const auto items = MakeItems(w);
  StreamVarOpt one(20, Rng(16));
  for (const auto& it : items) one.Push(it);
  StreamVarOpt batch(20, Rng(16));
  batch.PushBatch(items);
  EXPECT_DOUBLE_EQ(one.tau(), batch.tau());
  EXPECT_EQ(one.ToSample().EstimateTotal(), batch.ToSample().EstimateTotal());
}

TEST(StreamVarOpt, TakeSampleMatchesToSampleAndResets) {
  Rng rng(17);
  std::vector<Weight> w(200);
  for (auto& x : w) x = rng.NextPareto(1.2);
  const auto items = MakeItems(w);
  StreamVarOpt sv(16, Rng(18));
  for (const auto& it : items) sv.Push(it);

  const Sample copied = sv.ToSample();
  const Sample taken = sv.TakeSample();
  ASSERT_EQ(copied.size(), taken.size());
  EXPECT_DOUBLE_EQ(copied.tau(), taken.tau());
  for (std::size_t i = 0; i < copied.size(); ++i) {
    EXPECT_EQ(copied.entries()[i].id, taken.entries()[i].id);
  }
  // The sketch is reset: it warms up again from scratch.
  EXPECT_EQ(sv.size(), 0u);
  EXPECT_EQ(sv.items_seen(), 0u);
  EXPECT_DOUBLE_EQ(sv.tau(), 0.0);
  sv.Push({0, 1.0, {0, 0}});
  EXPECT_EQ(sv.size(), 1u);
  EXPECT_DOUBLE_EQ(sv.ToSample().EstimateTotal(), 1.0);
}

TEST(StreamVarOpt, SampleSizeOneWorks) {
  Rng seeder(14);
  std::vector<int> hits(4, 0);
  const auto items = MakeItems({1.0, 1.0, 1.0, 1.0});
  const int trials = 40000;
  for (int t = 0; t < trials; ++t) {
    StreamVarOpt sv(1, seeder.Split());
    for (const auto& it : items) sv.Push(it);
    ASSERT_EQ(sv.size(), 1u);
    hits[sv.ToSample().entries()[0].id]++;
  }
  for (int h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.25, 0.01);
  }
}

}  // namespace
}  // namespace sas
