#include "poisson.h"

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

TEST(Poisson, ExpectedSizeMatches) {
  Rng rng(1);
  const auto items = MakeItems(std::vector<Weight>(100, 1.0));
  double total = 0.0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    total += PoissonSample(items, 10.0, &rng).size();
  }
  EXPECT_NEAR(total / trials, 10.0, 0.3);
}

TEST(Poisson, HeavyKeysAlwaysIncluded) {
  Rng rng(2);
  std::vector<Weight> w(20, 1.0);
  w[0] = 1000.0;
  const auto items = MakeItems(w);
  for (int t = 0; t < 50; ++t) {
    const Sample s = PoissonSample(items, 5.0, &rng);
    bool found = false;
    for (const auto& e : s.entries()) found |= e.id == 0;
    EXPECT_TRUE(found);
  }
}

TEST(Poisson, InclusionFrequencyMatchesIpps) {
  Rng rng(3);
  const std::vector<Weight> w{8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  const auto items = MakeItems(w);
  const double s = 3.0;
  const double tau = SolveTau(w, s);
  std::vector<int> hits(w.size(), 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample = PoissonSample(items, s, &rng);
    for (const auto& e : sample.entries()) {
      hits[e.id]++;
    }
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.01)
        << "key " << i;
  }
}

TEST(Poisson, UnbiasedSubsetSum) {
  Rng rng(4);
  const std::vector<Weight> w{5.0, 3.0, 2.0, 2.0, 1.0, 1.0, 0.5, 0.5};
  const auto items = MakeItems(w);
  const Box subset{{0, 4}, {0, 1}};  // keys 0..3, true weight 12
  double total = 0.0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    total += PoissonSample(items, 4.0, &rng).EstimateBox(subset);
  }
  EXPECT_NEAR(total / trials, 12.0, 0.1);
}

TEST(Poisson, ZeroWeightNeverSampled) {
  Rng rng(5);
  std::vector<Weight> w(10, 1.0);
  w[3] = 0.0;
  const auto items = MakeItems(w);
  for (int t = 0; t < 100; ++t) {
    const Sample sample = PoissonSample(items, 5.0, &rng);
    for (const auto& e : sample.entries()) {
      EXPECT_NE(e.id, 3u);
    }
  }
}

}  // namespace
}  // namespace sas
