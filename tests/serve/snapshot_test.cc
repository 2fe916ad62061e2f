// ServingSnapshot differential tests: the accelerated estimate paths must
// be BIT-IDENTICAL (EXPECT_EQ on doubles, not near) to the linear Sample
// scans across every sample-backed registry key family — the accelerated
// path reproduces the linear scan's addition order exactly, and counts an
// entry inside overlapping rectangles once. The EstimateIdRangeFast
// prefix-difference path is re-associated and is held to ulp-level
// relative tolerance instead (the SIMD reduction contract). Plus: alias
// table draw frequencies pass a chi-square test at fixed seed, and
// degenerate snapshots (empty, duplicate ids, zero weights) behave.

#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/random.h"
#include "structure/hierarchy.h"
#include "../api/sample_cases.h"

namespace sas {
namespace {

using test::BaseConfig;
using test::kDomain;
using test::kN;
using test::MethodCase;
using test::QueryBoxes;
using test::SampleBackedCases;
using test::SampleCaseInputs;

TEST(ServingSnapshotDifferential, BoxEstimatesBitIdenticalAcrossFamilies) {
  const SampleCaseInputs in;
  Rng box_rng(77);
  const auto boxes = QueryBoxes(&box_rng);
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const SampleSummary* ss = summary->AsSample();
    ASSERT_NE(ss, nullptr);
    const Sample& sample = ss->sample();
    const ServingSnapshot snap(sample);

    EXPECT_EQ(snap.TotalWeight(), sample.EstimateTotal());
    for (const Box& box : boxes) {
      // EXPECT_EQ, not NEAR: the accelerated path must reproduce the
      // linear scan's floating-point result bit for bit.
      EXPECT_EQ(snap.EstimateBox(box, &scratch), sample.EstimateBox(box));
      EXPECT_EQ(snap.CountInBox(box), sample.CountInBox(box));
    }
  }
}

TEST(ServingSnapshotDifferential, MultiBoxQueriesBitIdentical) {
  const SampleCaseInputs in;
  Rng box_rng(78);
  const auto boxes = QueryBoxes(&box_rng);
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    // Disjoint-by-construction rectangle pairs: split the domain on x.
    for (std::size_t i = 0; i + 1 < boxes.size(); i += 2) {
      MultiRangeQuery q;
      q.boxes.push_back({{0, kDomain / 2}, boxes[i].y});
      q.boxes.push_back({{kDomain / 2, kDomain}, boxes[i + 1].y});
      EXPECT_EQ(snap.EstimateQuery(q, &scratch), sample.EstimateQuery(q));
    }
  }
}

TEST(ServingSnapshotDifferential, IdRangeSubsetsBitIdentical) {
  const SampleCaseInputs in;
  QueryScratch scratch;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    Rng range_rng(99);
    for (int i = 0; i < 50; ++i) {
      const KeyId a = static_cast<KeyId>(range_rng.NextBounded(kN + 10));
      const KeyId b = static_cast<KeyId>(range_rng.NextBounded(kN + 10));
      const KeyId lo = std::min(a, b);
      const KeyId hi = std::max(a, b);
      const Weight linear = sample.EstimateSubset(
          [&](const WeightedKey& k) { return k.id >= lo && k.id < hi; });
      EXPECT_EQ(snap.EstimateIdRange(lo, hi, &scratch), linear)
          << "[" << lo << ", " << hi << ")";
    }
  }
}

TEST(ServingSnapshotDifferential, FastPathsMatchToUlpLevel) {
  const SampleCaseInputs in;
  for (const MethodCase& c : SampleBackedCases(in)) {
    SCOPED_TRACE(c.key);
    auto builder = MakeSummarizer(c.key, BaseConfig(c));
    builder->AddBatch(*c.items);
    const auto summary = builder->Finalize();
    const Sample& sample = summary->AsSample()->sample();
    const ServingSnapshot snap(sample);

    // The prefix-difference path re-associates the additions: near-equality
    // only, the same contract as the SIMD reductions.
    const Weight total = sample.EstimateTotal();
    EXPECT_NEAR(snap.EstimateIdRangeFast(0, kN + 1), total,
                1e-9 * std::max(1.0, std::abs(total)));
  }
}

TEST(ServingSnapshot, DuplicateIdsFromMergedWindowsAreHandled) {
  // Merged windows can carry one key id twice (the same flow sampled in
  // two buckets). The position indexes order duplicates by position, so
  // the bit-identity contract must hold verbatim.
  std::vector<WeightedKey> entries = {
      {7, 3.0, {1, 1}}, {3, 1.0, {2, 2}}, {7, 2.0, {3, 3}},
      {3, 5.0, {4, 4}}, {9, 1.5, {5, 5}},
  };
  const Sample sample(2.0, entries);
  const ServingSnapshot snap(sample);
  QueryScratch scratch;

  EXPECT_EQ(snap.EstimateIdRange(3, 8, &scratch),
            sample.EstimateSubset(
                [](const WeightedKey& k) { return k.id >= 3 && k.id < 8; }));
  EXPECT_EQ(snap.EstimateIdRange(7, 8, &scratch),
            sample.EstimateSubset(
                [](const WeightedKey& k) { return k.id == 7; }));
  const Box all{{0, 10}, {0, 10}};
  EXPECT_EQ(snap.EstimateBox(all, &scratch), sample.EstimateBox(all));
  EXPECT_EQ(snap.TotalWeight(), sample.EstimateTotal());
}

TEST(ServingSnapshot, OverlappingRectanglesCountAnEntryOnce) {
  // The entry at (10, 10) lies in both rectangles; the linear scan counts
  // it once, and so must the snapshot (the position bitmap is a union).
  const Sample sample(1.0, {{0, 5.0, {10, 10}}, {1, 2.0, {25, 25}}});
  const ServingSnapshot snap(sample);
  QueryScratch scratch;
  MultiRangeQuery q;
  q.boxes = {{{0, 20}, {0, 20}}, {{5, 30}, {5, 30}}};
  EXPECT_EQ(sample.EstimateQuery(q), 7.0);
  EXPECT_EQ(snap.EstimateQuery(q, &scratch), sample.EstimateQuery(q));
  q.boxes = {{{0, 20}, {0, 20}}, {{5, 30}, {5, 20}}};
  EXPECT_EQ(snap.EstimateQuery(q, &scratch), 5.0);
  // The same rectangle twice is still one rectangle's worth.
  q.boxes = {{{0, 30}, {0, 30}}, {{0, 30}, {0, 30}}};
  EXPECT_EQ(snap.EstimateQuery(q, &scratch), 7.0);
}

TEST(ServingSnapshot, OneScratchServesSnapshotsOfEverySize) {
  // A reader's bitmap grows to the largest snapshot it has queried and
  // must come back clear after every query, whatever the snapshot size.
  QueryScratch scratch;
  Rng rng(5);
  for (const std::size_t s : {200u, 1u, 65u, 0u, 64u, 130u}) {
    std::vector<WeightedKey> entries;
    for (std::size_t i = 0; i < s; ++i) {
      entries.push_back({static_cast<KeyId>(i), rng.NextPareto(1.3),
                         {rng.NextBounded(64), rng.NextBounded(64)}});
    }
    const Sample sample(1.5, entries);
    const ServingSnapshot snap(sample);
    SCOPED_TRACE(s);
    for (int i = 0; i < 20; ++i) {
      const Box box{{rng.NextBounded(32), 32 + rng.NextBounded(33)},
                    {rng.NextBounded(32), 32 + rng.NextBounded(33)}};
      EXPECT_EQ(snap.EstimateBox(box, &scratch), sample.EstimateBox(box));
      const auto lo = static_cast<KeyId>(rng.NextBounded(s + 1));
      EXPECT_EQ(snap.EstimateIdRange(lo, lo + 40, &scratch),
                sample.EstimateSubset([&](const WeightedKey& k) {
                  return k.id >= lo && k.id < lo + 40;
                }));
    }
  }
}

TEST(ServingSnapshot, EmptySnapshot) {
  const Sample empty;
  const ServingSnapshot snap(empty);
  QueryScratch scratch;
  EXPECT_EQ(snap.size(), 0u);
  EXPECT_EQ(snap.TotalWeight(), 0.0);
  EXPECT_EQ(snap.EstimateBox({{0, 10}, {0, 10}}, &scratch), 0.0);
  EXPECT_EQ(snap.EstimateIdRange(0, 100, &scratch), 0.0);
  EXPECT_EQ(snap.EstimateIdRangeFast(0, 100), 0.0);
  Rng rng(1);
  EXPECT_THROW(snap.DrawIndex(&rng), std::logic_error);
}

TEST(ServingSnapshot, AliasTableDrawFrequenciesPassChiSquare) {
  // Adjusted weights under tau = 2: {2, 2, 3, 4, 5, 6, 7, 8} (the first
  // two entries sit below the threshold). 200k draws at a fixed seed; the
  // chi-square statistic against the proportional expectation must stay
  // under the 99.9% quantile for df = 7 (24.32) with margin.
  std::vector<WeightedKey> entries;
  const double weights[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  for (KeyId i = 0; i < 8; ++i) {
    entries.push_back({i, weights[i], {i, i}});
  }
  const Sample sample(2.0, entries);
  const ServingSnapshot snap(sample);

  constexpr std::size_t kDraws = 200000;
  Rng rng(123456);
  std::vector<std::uint64_t> observed(8, 0);
  for (std::size_t d = 0; d < kDraws; ++d) {
    const std::size_t idx = snap.DrawIndex(&rng);
    ASSERT_LT(idx, observed.size());
    ++observed[idx];
  }

  const double total = sample.EstimateTotal();  // 37
  double chi2 = 0.0;
  for (std::size_t i = 0; i < 8; ++i) {
    const double adjusted = sample.AdjustedWeight(entries[i]);
    const double expected = static_cast<double>(kDraws) * adjusted / total;
    const double delta = static_cast<double>(observed[i]) - expected;
    chi2 += delta * delta / expected;
  }
  EXPECT_LT(chi2, 24.32) << "draw frequencies are off proportional";
}

TEST(ServingSnapshot, ZeroWeightSampleDegeneratesToUniformDraws) {
  std::vector<WeightedKey> entries = {
      {0, 0.0, {0, 0}}, {1, 0.0, {1, 1}}, {2, 0.0, {2, 2}}};
  const Sample sample(0.0, entries);
  const ServingSnapshot snap(sample);
  Rng rng(7);
  std::vector<std::uint64_t> seen(3, 0);
  for (int i = 0; i < 3000; ++i) ++seen[snap.DrawIndex(&rng)];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(seen[i], 800u) << "column " << i;  // ~1000 expected each
  }
}

}  // namespace
}  // namespace sas
