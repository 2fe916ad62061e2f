#include "core/pair_aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/random.h"

namespace sas {
namespace {

TEST(SnapProbability, SnapsNearBoundaries) {
  EXPECT_DOUBLE_EQ(SnapProbability(1e-14), 0.0);
  EXPECT_DOUBLE_EQ(SnapProbability(1.0 - 1e-14), 1.0);
  EXPECT_DOUBLE_EQ(SnapProbability(0.5), 0.5);
  EXPECT_DOUBLE_EQ(SnapProbability(0.0), 0.0);
  EXPECT_DOUBLE_EQ(SnapProbability(1.0), 1.0);
}

TEST(PairAggregate, PreservesSum) {
  Rng rng(1);
  for (int trial = 0; trial < 1000; ++trial) {
    double a = 0.001 + 0.998 * rng.NextDouble();
    double b = 0.001 + 0.998 * rng.NextDouble();
    const double sum = a + b;
    PairAggregate(&a, &b, &rng);
    EXPECT_NEAR(a + b, sum, 1e-9);
  }
}

TEST(PairAggregate, SetsAtLeastOneEntry) {
  Rng rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    double a = 0.001 + 0.998 * rng.NextDouble();
    double b = 0.001 + 0.998 * rng.NextDouble();
    PairAggregate(&a, &b, &rng);
    EXPECT_TRUE(IsSet(a) || IsSet(b));
  }
}

TEST(PairAggregate, OutputsStayInUnitInterval) {
  Rng rng(3);
  for (int trial = 0; trial < 1000; ++trial) {
    double a = 0.001 + 0.998 * rng.NextDouble();
    double b = 0.001 + 0.998 * rng.NextDouble();
    PairAggregate(&a, &b, &rng);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
}

TEST(PairAggregate, SmallSumCaseMovesAllMass) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    double a = 0.2, b = 0.3;
    PairAggregate(&a, &b, &rng);
    // One entry holds 0.5, the other is 0.
    EXPECT_TRUE((std::fabs(a - 0.5) < 1e-12 && b == 0.0) ||
                (std::fabs(b - 0.5) < 1e-12 && a == 0.0));
  }
}

TEST(PairAggregate, LargeSumCaseIncludesOne) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    double a = 0.8, b = 0.7;
    PairAggregate(&a, &b, &rng);
    EXPECT_TRUE(a == 1.0 || b == 1.0);
    const double leftover = a == 1.0 ? b : a;
    EXPECT_NEAR(leftover, 0.5, 1e-12);
  }
}

TEST(PairAggregate, AgreementInExpectationSmallSum) {
  // E[new a] must equal old a (unbiasedness of the aggregation).
  Rng rng(6);
  const double a0 = 0.15, b0 = 0.45;
  double sum_a = 0.0, sum_b = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double a = a0, b = b0;
    PairAggregate(&a, &b, &rng);
    sum_a += a;
    sum_b += b;
  }
  EXPECT_NEAR(sum_a / n, a0, 0.005);
  EXPECT_NEAR(sum_b / n, b0, 0.005);
}

TEST(PairAggregate, AgreementInExpectationLargeSum) {
  Rng rng(7);
  const double a0 = 0.85, b0 = 0.65;
  double sum_a = 0.0, sum_b = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double a = a0, b = b0;
    PairAggregate(&a, &b, &rng);
    sum_a += a;
    sum_b += b;
  }
  EXPECT_NEAR(sum_a / n, a0, 0.005);
  EXPECT_NEAR(sum_b / n, b0, 0.005);
}

TEST(PairAggregate, InclusionExclusionBound) {
  // VarOpt condition (iii), pairwise: E[p'_i p'_j] <= p_i p_j and
  // E[(1-p'_i)(1-p'_j)] <= (1-p_i)(1-p_j).
  Rng rng(8);
  for (double a0 : {0.2, 0.5, 0.8}) {
    for (double b0 : {0.3, 0.6, 0.9}) {
      double prod = 0.0, coprod = 0.0;
      const int n = 100000;
      for (int i = 0; i < n; ++i) {
        double a = a0, b = b0;
        PairAggregate(&a, &b, &rng);
        prod += a * b;
        coprod += (1.0 - a) * (1.0 - b);
      }
      EXPECT_LE(prod / n, a0 * b0 + 0.005) << a0 << " " << b0;
      EXPECT_LE(coprod / n, (1.0 - a0) * (1.0 - b0) + 0.005)
          << a0 << " " << b0;
    }
  }
}

TEST(PairAggregate, ExactSumOneResolvesBoth) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    double a = 0.4, b = 0.6;
    PairAggregate(&a, &b, &rng);
    EXPECT_TRUE(IsSet(a) && IsSet(b));
    EXPECT_NEAR(a + b, 1.0, 1e-12);
  }
}

TEST(ChainAggregate, LeavesAtMostOneOpen) {
  Rng rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(50);
    std::vector<double> p(n);
    for (auto& x : p) x = 0.01 + 0.98 * rng.NextDouble();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    const std::size_t leftover = ChainAggregate(&p, order, kNoEntry, &rng);
    std::size_t open = 0;
    for (double x : p) open += !IsSet(x);
    EXPECT_LE(open, 1u);
    if (open == 1) {
      ASSERT_NE(leftover, kNoEntry);
      EXPECT_FALSE(IsSet(p[leftover]));
    } else {
      EXPECT_EQ(leftover, kNoEntry);
    }
  }
}

TEST(ChainAggregate, PreservesTotalMass) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng.NextBounded(50);
    std::vector<double> p(n);
    double total = 0.0;
    for (auto& x : p) {
      x = 0.01 + 0.98 * rng.NextDouble();
      total += x;
    }
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    ChainAggregate(&p, order, kNoEntry, &rng);
    double after = 0.0;
    for (double x : p) after += x;
    EXPECT_NEAR(after, total, 1e-7);
  }
}

TEST(ChainAggregate, SkipsSetEntries) {
  Rng rng(12);
  std::vector<double> p{1.0, 0.5, 0.0, 0.5, 1.0};
  std::vector<std::size_t> order{0, 1, 2, 3, 4};
  ChainAggregate(&p, order, kNoEntry, &rng);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
  EXPECT_DOUBLE_EQ(p[4], 1.0);
  EXPECT_TRUE(IsSet(p[1]) && IsSet(p[3]));
  EXPECT_NEAR(p[1] + p[3], 1.0, 1e-12);
}

TEST(ChainAggregate, CarryIsUsed) {
  Rng rng(13);
  std::vector<double> p{0.5, 0.5};
  std::vector<std::size_t> order{1};
  const std::size_t leftover = ChainAggregate(&p, order, 0, &rng);
  EXPECT_EQ(leftover, kNoEntry);  // 0.5 + 0.5 = 1 resolves both
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(ChainAggregate, IntegralMassFullyResolves) {
  // When the open mass is an integer, no leftover remains and exactly that
  // many entries are 1.
  Rng rng(14);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> p{0.5, 0.5, 0.25, 0.25, 0.25, 0.25};
    std::vector<std::size_t> order{0, 1, 2, 3, 4, 5};
    const std::size_t leftover = ChainAggregate(&p, order, kNoEntry, &rng);
    EXPECT_EQ(leftover, kNoEntry);
    int ones = 0;
    for (double x : p) {
      EXPECT_TRUE(IsSet(x));
      ones += x == 1.0;
    }
    EXPECT_EQ(ones, 2);
  }
}

TEST(ResolveResidual, BernoulliSemantics) {
  Rng rng(15);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    std::vector<double> p{0.3};
    ResolveResidual(&p, 0, &rng);
    EXPECT_TRUE(IsSet(p[0]));
    ones += p[0] == 1.0;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.3, 0.01);
}

TEST(ResolveResidual, NoEntryIsNoOp) {
  Rng rng(16);
  std::vector<double> p{0.5};
  ResolveResidual(&p, kNoEntry, &rng);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
}

TEST(TreeAggregate, TwoLevelTreeMatchesChainsOnOneStream) {
  // Groups {0, 1, 2}, {3, 4, settled 5} and a root over their leftovers
  // (members 6 + 0 and 6 + 1): the same chains, on one stream, in order.
  const std::vector<double> p0{0.3, 0.45, 0.5, 0.35, 0.6, 1.0};
  AggregationTree tree;
  tree.Clear(p0.size());
  for (std::size_t m : {0, 1, 2}) tree.Add(m);
  tree.CloseGroup();
  for (std::size_t m : {3, 4, 5}) tree.Add(m);
  tree.CloseGroup();
  tree.Add(6);
  tree.Add(7);
  tree.CloseGroup();
  ASSERT_EQ(tree.num_groups(), 3u);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    std::vector<double> want = p0;
    Rng rng_want(seed);
    {
      RngStream draws(&rng_want);
      const std::size_t a[] = {0, 1, 2};
      const std::size_t b[] = {3, 4, 5};
      std::vector<std::size_t> root;
      for (const std::size_t* g : {a, b}) {
        const std::size_t l =
            ChainAggregateRange(want.data(), g, 3, kNoEntry, &draws);
        if (l != kNoEntry) root.push_back(l);
      }
      ResolveResidual(want.data(),
                      ChainAggregateRange(want.data(), root.data(),
                                          root.size(), kNoEntry, &draws),
                      &draws);
    }
    std::vector<double> got = p0;
    Rng rng_got(seed);
    TreeAggregateScratch scratch;
    TreeAggregate(tree, got.data(), &rng_got, &scratch);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(rng_got.Next(), rng_want.Next()) << "seed " << seed;
    for (double x : got) EXPECT_TRUE(IsSet(x));
  }
}

TEST(TreeAggregate, TreeWithoutGroupsIsNoOp) {
  std::vector<double> p{0.5, 0.5};
  AggregationTree tree;
  TreeAggregateScratch scratch;
  Rng rng(3), untouched(3);
  TreeAggregate(tree, p.data(), &rng, &scratch);  // never Cleared
  tree.Clear(p.size());
  TreeAggregate(tree, p.data(), &rng, &scratch);  // Cleared, no groups
  EXPECT_EQ(p, (std::vector<double>{0.5, 0.5}));
  EXPECT_EQ(rng.Next(), untouched.Next());
}

}  // namespace
}  // namespace sas
