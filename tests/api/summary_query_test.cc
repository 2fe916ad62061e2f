// SampleSummary query tests: a finalized sample summary answers box and
// multi-rectangle queries from its box index (core/box_index.h), and every
// answer must be BIT-IDENTICAL (EXPECT_EQ on doubles) to the linear Sample
// scan — across every sample-backed registry key, including the sharded:,
// windowed: and serve: compositions, and across the inputs that stress the
// index: empty samples, empty/inverted boxes, boxes reaching UINT64_MAX,
// coordinates that need all eight radix bytes, all-identical and duplicate
// x, sizes around the 64-bit bitmap word, overlapping rectangles, and
// concurrent queries on one summary.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/random.h"
#include "sample_cases.h"

namespace sas {
namespace {

constexpr Coord kMax = std::numeric_limits<Coord>::max();

/// Every box and every pair of boxes (overlapping ones included), plus the
/// whole battery as one query, against the linear scans.
void ExpectMatchesLinear(const SampleSummary& summary,
                         const std::vector<Box>& boxes) {
  const Sample& sample = summary.sample();
  for (const Box& box : boxes) {
    ASSERT_EQ(summary.EstimateBox(box), sample.EstimateBox(box))
        << "[" << box.x.lo << ", " << box.x.hi << ") x [" << box.y.lo
        << ", " << box.y.hi << ")";
  }
  for (std::size_t i = 0; i + 1 < boxes.size(); ++i) {
    MultiRangeQuery q;
    q.boxes = {boxes[i], boxes[i + 1]};
    ASSERT_EQ(summary.EstimateQuery(q), sample.EstimateQuery(q)) << i;
  }
  MultiRangeQuery all;
  all.boxes = boxes;
  EXPECT_EQ(summary.EstimateQuery(all), sample.EstimateQuery(all));
}

/// Boxes whose corners come from `cuts` (every ordered pair per axis,
/// inverted and empty intervals included).
std::vector<Box> BoxesFromCuts(const std::vector<Coord>& cuts, Rng* rng) {
  std::vector<Box> boxes;
  for (int i = 0; i < 200; ++i) {
    const auto pick = [&] { return cuts[rng->NextBounded(cuts.size())]; };
    boxes.push_back({{pick(), pick()}, {pick(), pick()}});
  }
  return boxes;
}

SampleSummary MakeSummary(std::vector<WeightedKey> entries, double tau) {
  return SampleSummary("test", Sample(tau, std::move(entries)));
}

std::vector<WeightedKey> ParetoEntries(std::size_t n, Rng* rng,
                                       Coord x_domain, Coord y_domain) {
  std::vector<WeightedKey> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<KeyId>(i), rng->NextPareto(1.3),
                       {rng->NextBounded(x_domain),
                        rng->NextBounded(y_domain)}});
  }
  return entries;
}

TEST(SampleSummaryQuery, BitIdenticalToLinearScanAcrossFamilies) {
  const test::SampleCaseInputs in;
  Rng box_rng(81);
  const auto boxes = test::QueryBoxes(&box_rng);
  for (const test::MethodCase& c : test::SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, test::BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const SampleSummary* ss = summary->AsSample();
    ASSERT_NE(ss, nullptr);
    ASSERT_GT(ss->sample().size(), 0u);
    ExpectMatchesLinear(*ss, boxes);
  }
}

TEST(SampleSummaryQuery, OverlappingRectanglesCountAnEntryOnce) {
  const SampleSummary summary = MakeSummary({{0, 5.0, {10, 10}}}, 1.0);
  MultiRangeQuery q;
  q.boxes = {{{0, 20}, {0, 20}}, {{5, 30}, {5, 30}}};
  EXPECT_EQ(summary.sample().EstimateQuery(q), 5.0);
  EXPECT_EQ(summary.EstimateQuery(q), 5.0);
}

TEST(SampleSummaryQuery, EmptySampleAndTakenSample) {
  const SampleSummary empty("empty", Sample());
  EXPECT_EQ(empty.EstimateBox({{0, kMax}, {0, kMax}}), 0.0);

  Rng rng(3);
  SampleSummary summary = MakeSummary(ParetoEntries(100, &rng, 64, 64), 1.0);
  const Box all{{0, kMax}, {0, kMax}};
  const Weight before = summary.EstimateBox(all);
  const Sample taken = summary.TakeSample();
  EXPECT_EQ(taken.EstimateBox(all), before);
  EXPECT_EQ(summary.sample().size(), 0u);
  EXPECT_EQ(summary.EstimateBox(all), 0.0);
}

TEST(SampleSummaryQuery, EmptyInvertedAndMaxReachingBoxes) {
  Rng rng(5);
  std::vector<WeightedKey> entries = ParetoEntries(150, &rng, 1000, 1000);
  // Points on the domain's upper edge: x or y == UINT64_MAX is outside
  // every half-open box, so only the linear scan's answer is right.
  entries.push_back({900, 2.0, {kMax, 10}});
  entries.push_back({901, 3.0, {10, kMax}});
  entries.push_back({902, 4.0, {kMax - 1, kMax - 1}});
  entries.push_back({903, 5.0, {kMax, kMax}});
  const SampleSummary summary = MakeSummary(entries, 1.5);
  std::vector<Box> boxes = BoxesFromCuts(
      {0, 1, 10, 11, 500, 999, 1000, kMax - 1, kMax}, &rng);
  boxes.push_back({{0, kMax}, {0, kMax}});
  boxes.push_back({{kMax, kMax}, {0, kMax}});    // empty x
  boxes.push_back({{kMax, 0}, {kMax, 0}});       // inverted
  boxes.push_back({{500, 10}, {0, kMax}});       // inverted x only
  ExpectMatchesLinear(summary, boxes);
}

TEST(SampleSummaryQuery, CoordinatesNeedingAllEightRadixBytes) {
  Rng rng(7);
  std::vector<WeightedKey> entries;
  std::vector<Coord> cuts = {0, Coord{1} << 56, kMax};
  for (KeyId i = 0; i < 300; ++i) {
    // x >= 2^56 varies in every byte, the top one included.
    const Coord x = (Coord{1} << 56) | rng.NextBounded(Coord{1} << 56) |
                    (rng.NextBounded(255) << 56);
    const Coord y = rng.NextBounded(kMax);
    entries.push_back({i, rng.NextPareto(1.3), {x, y}});
    if (i % 10 == 0) {
      cuts.push_back(x);
      cuts.push_back(y);
    }
  }
  const SampleSummary summary = MakeSummary(entries, 2.0);
  ExpectMatchesLinear(summary, BoxesFromCuts(cuts, &rng));
}

TEST(SampleSummaryQuery, AllIdenticalAndDuplicateX) {
  Rng rng(9);
  // All-identical x: the radix sort makes zero passes and keeps position
  // order.
  std::vector<WeightedKey> same_x = ParetoEntries(130, &rng, 1, 50);
  for (auto& e : same_x) e.pt.x = 42;
  ExpectMatchesLinear(MakeSummary(same_x, 1.2),
                      BoxesFromCuts({0, 41, 42, 43, 10, 25, 50, kMax}, &rng));
  // Heavy x duplicates.
  const std::vector<WeightedKey> dup_x = ParetoEntries(400, &rng, 4, 40);
  ExpectMatchesLinear(MakeSummary(dup_x, 1.2),
                      BoxesFromCuts({0, 1, 2, 3, 4, 10, 20, 40}, &rng));
}

TEST(SampleSummaryQuery, SizesAroundTheBitmapWord) {
  Rng rng(11);
  for (const std::size_t n : {1u, 63u, 64u, 65u}) {
    SCOPED_TRACE(n);
    const SampleSummary summary =
        MakeSummary(ParetoEntries(n, &rng, 100, 100), 1.0);
    ExpectMatchesLinear(summary,
                        BoxesFromCuts({0, 1, 20, 50, 80, 99, 100}, &rng));
  }
}

TEST(SampleSummaryQuery, ConcurrentQueriesOnOneSummary) {
  // Four threads query one summary at once; each must see exactly the
  // linear scan's answers (the summary is immutable, each thread owns its
  // bitmap).
  Rng rng(13);
  const SampleSummary summary =
      MakeSummary(ParetoEntries(3000, &rng, 1 << 16, 1 << 16), 1.0);
  std::vector<MultiRangeQuery> queries(64);
  std::vector<Weight> expected;
  for (auto& q : queries) {
    for (int b = 0; b < 5; ++b) {
      const Coord x = rng.NextBounded(1 << 16);
      const Coord y = rng.NextBounded(1 << 16);
      q.boxes.push_back({{x, x + rng.NextBounded(1 << 14)},
                         {y, y + rng.NextBounded(1 << 14)}});
    }
    expected.push_back(summary.sample().EstimateQuery(q));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t k = (i + static_cast<std::size_t>(t) * 16) %
                                queries.size();
          if (summary.EstimateQuery(queries[k]) != expected[k]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace sas
