#include "aware/two_pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "aware/kd_hierarchy.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "sampling/stream_varopt.h"
#include "sampling/varopt_offline.h"
#include "summaries/exact_summary.h"

namespace sas {
namespace {

std::vector<WeightedKey> RandomItems(std::size_t n, Coord domain, Rng* rng,
                                     double alpha = 1.3) {
  std::set<std::pair<Coord, Coord>> seen;
  while (seen.size() < n) {
    seen.insert({rng->NextBounded(domain), rng->NextBounded(domain)});
  }
  std::vector<WeightedKey> items;
  KeyId id = 0;
  for (const auto& [x, y] : seen) {
    items.push_back({id++, rng->NextPareto(alpha), {x, y}});
  }
  return items;
}

TEST(TwoPassProduct, ExactSampleSize) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.NextBounded(400);
    const auto items = RandomItems(n, 1 << 16, &rng);
    const std::size_t s = 5 + rng.NextBounded(40);
    const Sample sample = TwoPassProductSample(
        items, static_cast<double>(s), TwoPassConfig{}, &rng);
    EXPECT_EQ(sample.size(), s) << "n=" << n << " s=" << s;
  }
}

TEST(TwoPassProduct, ThresholdMatchesOffline) {
  Rng rng(2);
  const auto items = RandomItems(500, 1 << 14, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const Sample sample =
      TwoPassProductSample(items, 25.0, TwoPassConfig{}, &rng);
  EXPECT_NEAR(sample.tau(), SolveTau(w, 25.0), 1e-9 * (1 + sample.tau()));
}

TEST(TwoPassProduct, InclusionFrequencyMatchesIpps) {
  Rng rng(3);
  const auto items = RandomItems(40, 1 << 10, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 10.0;
  const double tau = SolveTau(w, s);
  std::vector<int> hits(items.size(), 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    const Sample sample =
        TwoPassProductSample(items, s, TwoPassConfig{}, &rng);
    for (const auto& e : sample.entries()) hits[e.id]++;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / trials,
                IppsProbability(w[i], tau), 0.015)
        << "key " << i;
  }
}

TEST(TwoPassProduct, UnbiasedBoxSum) {
  Rng rng(4);
  const auto items = RandomItems(300, 1 << 12, &rng);
  const Box box{{0, 1 << 11}, {0, 1 << 12}};
  const Weight truth = ExactBoxSum(items, box);
  ASSERT_GT(truth, 0.0);
  double total = 0.0;
  const int trials = 15000;
  for (int t = 0; t < trials; ++t) {
    total += TwoPassProductSample(items, 30.0, TwoPassConfig{}, &rng)
                 .EstimateBox(box);
  }
  EXPECT_NEAR(total / trials / truth, 1.0, 0.03);
}

TEST(TwoPassProduct, BoxDiscrepancyBeatsOblivious) {
  Rng rng(5);
  const auto items = RandomItems(800, 1 << 14, &rng);
  std::vector<Weight> w;
  for (const auto& it : items) w.push_back(it.weight);
  const double s = 80.0;
  const double tau = SolveTau(w, s);
  std::vector<double> probs;
  IppsProbabilities(w, tau, &probs);

  std::vector<Box> boxes;
  for (int i = 0; i < 25; ++i) {
    const Coord x0 = rng.NextBounded(1 << 13);
    const Coord y0 = rng.NextBounded(1 << 13);
    const Coord wx = 1 + rng.NextBounded(1 << 13);
    const Coord wy = 1 + rng.NextBounded(1 << 13);
    boxes.push_back({{x0, x0 + wx}, {y0, y0 + wy}});
  }
  auto rms_disc = [&](auto&& sampler) {
    double total = 0.0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      const Sample sample = sampler();
      for (const auto& box : boxes) {
        double expected = 0.0;
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (box.Contains(items[i].pt)) expected += probs[i];
        }
        const double d =
            static_cast<double>(sample.CountInBox(box)) - expected;
        total += d * d;
      }
    }
    return std::sqrt(total / (trials * boxes.size()));
  };

  const double aware = rms_disc([&] {
    return TwoPassProductSample(items, s, TwoPassConfig{}, &rng);
  });
  const double obliv =
      rms_disc([&] { return VarOptOffline(items, s, &rng); });
  EXPECT_LT(aware, 0.9 * obliv)
      << "aware rms=" << aware << " obliv rms=" << obliv;
}

TEST(TwoPassProduct, StreamingInterfaceMatchesWrapper) {
  Rng rng(6);
  const auto items = RandomItems(200, 1 << 12, &rng);
  TwoPassProductSampler sampler(15.0, TwoPassConfig{}, rng.Split());
  for (const auto& it : items) sampler.Pass1(it);
  sampler.BeginPass2();
  EXPECT_GT(sampler.num_cells(), 0u);
  for (const auto& it : items) sampler.Pass2(it);
  const Sample sample = sampler.Finalize();
  EXPECT_EQ(sample.size(), 15u);
}

/// Runs pass 1 over the non-negative items, then pass 2 over all of them:
/// per item through Pass2 when batch == 0, else through Pass2Batch in
/// consecutive batches of `batch` items with an empty batch before each.
Sample RunTwoPass(const std::vector<WeightedKey>& items, double s,
                  TwoPassConfig cfg, std::uint64_t seed, std::size_t batch,
                  std::size_t* cells) {
  Rng rng(seed);
  TwoPassProductSampler sampler(s, cfg, rng.Split());
  for (const auto& it : items) {
    if (it.weight >= 0.0) sampler.Pass1(it);
  }
  sampler.BeginPass2();
  *cells = sampler.num_cells();
  const std::span<const WeightedKey> all(items);
  if (batch == 0) {
    for (const auto& it : items) sampler.Pass2(it);
  } else {
    for (std::size_t at = 0; at < all.size(); at += batch) {
      sampler.Pass2Batch(all.subspan(at, 0));
      sampler.Pass2Batch(all.subspan(at, std::min(batch, all.size() - at)));
    }
  }
  return sampler.Finalize();
}

void ExpectSameSample(const Sample& got, const Sample& want) {
  ASSERT_EQ(got.tau(), want.tau());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const WeightedKey& a = got.entries()[i];
    const WeightedKey& b = want.entries()[i];
    ASSERT_EQ(a.id, b.id) << "entry " << i;
    ASSERT_EQ(a.weight, b.weight) << "entry " << i;
    ASSERT_EQ(a.pt.x, b.pt.x) << "entry " << i;
    ASSERT_EQ(a.pt.y, b.pt.y) << "entry " << i;
  }
}

/// One certain key plus 39 light ones: with s' = 1 (sprime_factor 0.1 at
/// s = 3) the guide holds only the certain key, so the partition is empty
/// and every open key of pass 2 lands in the single catch-all cell.
std::vector<WeightedKey> CatchAllItems(Rng* rng) {
  std::vector<WeightedKey> items = {{0, 1e12, {5, 5}}};
  for (KeyId i = 1; i < 40; ++i) {
    items.push_back({i, 0.5 + rng->NextDouble(),
                     {rng->NextBounded(64), rng->NextBounded(64)}});
  }
  return items;
}

TEST(TwoPassProduct, Pass2BatchMatchesPerItemPass2) {
  // Pass2Batch locates 16 items in lockstep and then aggregates in input
  // order, so every batching must give exactly the per-item sample: the
  // same tau, entries and entry order. The first stream mixes zero and
  // negative weights (skipped by pass 2) and interleaved certain (p == 1)
  // keys; the second has only the catch-all cell.
  Rng rng(21);
  auto mixed = RandomItems(700, 1 << 12, &rng);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (i % 11 == 3) mixed[i].weight = 0.0;
    if (i % 13 == 5) mixed[i].weight = -1.5;
    if (i % 17 == 7) mixed[i].weight = 1e9;  // certain inclusion
  }
  TwoPassConfig tiny_guide;
  tiny_guide.sprime_factor = 0.1;
  struct Case {
    std::vector<WeightedKey> items;
    double s;
    TwoPassConfig cfg;
    bool catch_all;
  };
  const std::vector<Case> cases = {
      {mixed, 10.0, TwoPassConfig{}, false},
      {mixed, 60.0, TwoPassConfig{}, false},
      {CatchAllItems(&rng), 3.0, tiny_guide, true}};
  for (const Case& c : cases) {
    std::size_t cells = 0;
    const Sample want = RunTwoPass(c.items, c.s, c.cfg, 33, 0, &cells);
    EXPECT_EQ(cells == 1, c.catch_all);
    for (std::size_t batch : {std::size_t{1}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              c.items.size()}) {
      SCOPED_TRACE(testing::Message() << "n=" << c.items.size()
                                      << " s=" << c.s << " batch=" << batch);
      std::size_t batch_cells = 0;
      ExpectSameSample(
          RunTwoPass(c.items, c.s, c.cfg, 33, batch, &batch_cells), want);
      EXPECT_EQ(batch_cells, cells);
    }
  }
}

/// The product two-pass sampler as it stood before the compact locate
/// table: a pointer-based KdHierarchy partition, a kd-node -> cell map,
/// and a per-item LocateLeaf descent. The reference the current sampler
/// must reproduce bit for bit (`rng` plays the sampler's constructor
/// argument). Pass 2 streams `pass2`, or `items` again when it is null.
Sample ReferenceTwoPassProduct(const std::vector<WeightedKey>& items,
                               double s, const TwoPassConfig& cfg, Rng rng,
                               const std::vector<WeightedKey>* pass2 =
                                   nullptr) {
  const auto sprime =
      static_cast<std::size_t>(std::max(1.0, cfg.sprime_factor * s));
  StreamTau tau_tracker(s);
  StreamVarOpt guide(sprime, rng.Split());
  for (const auto& it : items) {
    tau_tracker.Push(it.weight);
    guide.Push(it);
  }
  const double tau = tau_tracker.tau();
  std::vector<Point2D> pts;
  const Sample guide_sample = guide.ToSample();
  for (const auto& k : guide_sample.entries()) {
    if (IppsProbability(k.weight, tau) < 1.0) pts.push_back(k.pt);
  }
  const KdHierarchy partition =
      KdHierarchy::Build(pts, std::vector<double>(pts.size(), 1.0));
  std::vector<int> cell_of_leaf(std::max(partition.num_nodes(), 1), -1);
  int cells = 0;
  for (int v = 0; v < partition.num_nodes(); ++v) {
    if (partition.nodes()[v].IsLeaf()) cell_of_leaf[v] = cells++;
  }
  if (cells == 0) cells = 1;
  struct Slot {
    WeightedKey key;
    double p = 0.0;
    bool present = false;
  };
  std::vector<Slot> active(cells);
  std::vector<WeightedKey> sample;
  for (const auto& item : pass2 != nullptr ? *pass2 : items) {
    if (item.weight <= 0.0) continue;
    double p = SnapProbability(IppsProbability(item.weight, tau));
    if (p == 1.0) {
      sample.push_back(item);
      continue;
    }
    if (p == 0.0) continue;
    const int leaf = partition.LocateLeaf(item.pt);
    Slot& a = active[leaf == KdHierarchy::kNull ? 0 : cell_of_leaf[leaf]];
    if (!a.present) {
      a = {item, p, true};
      continue;
    }
    PairAggregate(&p, &a.p, &rng);
    if (a.p == 1.0) sample.push_back(a.key);
    if (IsSet(a.p)) a.present = false;
    if (p == 1.0) sample.push_back(item);
    if (!IsSet(p)) a = {item, p, true};
  }
  std::vector<WeightedKey> akeys;
  std::vector<double> aprobs;
  std::vector<std::size_t> entry_of_cell(active.size(), kNoEntry);
  for (std::size_t c = 0; c < active.size(); ++c) {
    if (active[c].present) {
      entry_of_cell[c] = akeys.size();
      akeys.push_back(active[c].key);
      aprobs.push_back(active[c].p);
    }
  }
  const int n = partition.num_nodes();
  std::size_t root_leftover = entry_of_cell[0];
  RngStream draws(&rng);
  if (n > 0) {
    std::vector<std::size_t> leftover(n, kNoEntry);
    std::vector<std::size_t> entries;
    for (int v = n - 1; v >= 0; --v) {
      const auto& node = partition.nodes()[v];
      entries.clear();
      if (node.IsLeaf()) {
        const std::size_t e = entry_of_cell[cell_of_leaf[v]];
        if (e != kNoEntry && !IsSet(aprobs[e])) entries.push_back(e);
      } else {
        for (int c : {node.left, node.right}) {
          if (leftover[c] != kNoEntry) entries.push_back(leftover[c]);
        }
      }
      leftover[v] = ChainAggregateRange(aprobs.data(), entries.data(),
                                        entries.size(), kNoEntry, &draws);
    }
    root_leftover = leftover[0];
  }
  ResolveResidual(aprobs.data(), root_leftover, &draws);
  draws.Flush();
  for (std::size_t e = 0; e < akeys.size(); ++e) {
    if (aprobs[e] == 1.0) sample.push_back(akeys[e]);
  }
  return Sample(tau, std::move(sample));
}

TEST(TwoPassProduct, MatchesPointerTreeReference) {
  Rng rng(24);
  std::vector<std::vector<WeightedKey>> inputs;
  inputs.push_back(RandomItems(900, 1 << 14, &rng));
  inputs.push_back(RandomItems(300, 1 << 5, &rng));
  // Heavy duplicates: guide points coincide, so leaves hold several keys.
  std::vector<WeightedKey> dups;
  for (KeyId i = 0; i < 500; ++i) {
    dups.push_back({i, rng.NextPareto(1.3),
                    {rng.NextBounded(5), rng.NextBounded(3)}});
  }
  inputs.push_back(dups);
  for (const auto& items : inputs) {
    for (double s : {1.0, 7.0, 40.0, 150.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << items.size() << " s=" << s);
      Rng a(25);
      Rng b(25);
      ExpectSameSample(TwoPassProductSample(items, s, TwoPassConfig{}, &a),
                       ReferenceTwoPassProduct(items, s, TwoPassConfig{},
                                               b.Split()));
    }
  }
  // The empty-partition catch-all cell. Pass 2 streams a prefix of pass
  // 1's items too, so the catch-all cell can end with an open key.
  const std::vector<WeightedKey> items = CatchAllItems(&rng);
  TwoPassConfig cfg;
  cfg.sprime_factor = 0.1;
  for (std::size_t prefix : {std::size_t{25}, items.size()}) {
    const std::vector<WeightedKey> pass2(items.begin(),
                                         items.begin() + prefix);
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng a(seed);
      TwoPassProductSampler sampler(3.0, cfg, a.Split());
      for (const auto& it : items) sampler.Pass1(it);
      sampler.BeginPass2();
      ASSERT_EQ(sampler.num_cells(), 1u);
      sampler.Pass2Batch(pass2);
      Rng b(seed);
      ExpectSameSample(sampler.Finalize(),
                       ReferenceTwoPassProduct(items, 3.0, cfg, b.Split(),
                                               &pass2));
    }
  }
}

TEST(TwoPassProduct, CallsOutOfSequenceThrow) {
  const std::vector<WeightedKey> items = {{0, 1.0, {0, 0}}, {1, 2.0, {1, 1}}};
  Rng rng(23);
  TwoPassProductSampler sampler(1.0, TwoPassConfig{}, rng.Split());
  EXPECT_THROW(sampler.Pass2(items[0]), std::logic_error);
  EXPECT_THROW((void)sampler.Finalize(), std::logic_error);
  for (const auto& it : items) sampler.Pass1(it);
  sampler.BeginPass2();
  EXPECT_THROW(sampler.Pass1(items[0]), std::logic_error);
  EXPECT_THROW(sampler.BeginPass2(), std::logic_error);
  sampler.Pass2Batch(items);
  EXPECT_EQ(sampler.Finalize().size(), 1u);
  EXPECT_THROW((void)sampler.Finalize(), std::logic_error);
  EXPECT_THROW(sampler.Pass2Batch(items), std::logic_error);
}

TEST(TwoPassOrder, ExactSampleSize) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 100 + rng.NextBounded(300);
    const auto items = RandomItems(n, 1 << 16, &rng);
    const std::size_t s = 5 + rng.NextBounded(30);
    const Sample sample = TwoPassOrderSample(
        items, static_cast<double>(s), TwoPassConfig{}, &rng);
    EXPECT_EQ(sample.size(), s);
  }
}

TEST(TwoPassOrder, IntervalDiscrepancyBelowTwoWhp) {
  // Section 5: with s' = Omega(s log s) the two-pass order summary matches
  // the main-memory Delta < 2 bound with high probability. The violation
  // probability must decay with the oversampling factor (measured here:
  // ~36% at 5x, ~10% at 8x, ~2% at 16x on this workload), and even a
  // violating run stays close to 2 (cells have O(1) mass).
  Rng rng(8);
  auto run = [&](double factor) {
    int violations = 0;
    double worst = 0.0;
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t n = 400;
      std::vector<WeightedKey> items(n);
      for (std::size_t i = 0; i < n; ++i) {
        items[i] = {static_cast<KeyId>(i), rng.NextPareto(1.3),
                    {static_cast<Coord>(i * 7 + rng.NextBounded(7)), 0}};
      }
      const double s = 20.0;
      TwoPassConfig cfg;
      cfg.sprime_factor = factor;
      const Sample sample = TwoPassOrderSample(items, s, cfg, &rng);

      std::vector<Weight> w;
      for (const auto& it : items) w.push_back(it.weight);
      const double tau = SolveTau(w, s);
      std::vector<double> probs;
      IppsProbabilities(w, tau, &probs);
      // Items are already x-sorted by construction here.
      std::vector<char> flags(n, 0);
      for (const auto& e : sample.entries()) flags[e.id] = 1;
      double diff = 0.0, lo = 0.0, hi = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        diff += (flags[i] ? 1.0 : 0.0) - probs[i];
        lo = std::min(lo, diff);
        hi = std::max(hi, diff);
      }
      if (hi - lo >= 2.0 + 1e-9) ++violations;
      worst = std::max(worst, hi - lo);
    }
    return std::make_pair(violations, worst);
  };
  const auto [v16, worst16] = run(16.0);
  EXPECT_LE(v16, 12);       // w.h.p. at a large factor
  EXPECT_LT(worst16, 3.0);  // violations stay near the bound
  const auto [v4, worst4] = run(4.0);
  (void)worst4;
  EXPECT_LE(v16, v4 + 5);  // decays with the factor
}

TEST(TwoPassProduct, TinyStreams) {
  Rng rng(9);
  // Fewer items than s: everything is kept.
  const auto items = RandomItems(5, 64, &rng);
  const Sample sample =
      TwoPassProductSample(items, 10.0, TwoPassConfig{}, &rng);
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_DOUBLE_EQ(sample.tau(), 0.0);
}

}  // namespace
}  // namespace sas
