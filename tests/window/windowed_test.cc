// Windowed backend tests: "windowed:<W>:<B>:<inner>" must cover exactly the
// last W time units at bucket granularity (items exactly W old are out),
// agree with a batch build of the inner method over the live window's items
// within Horvitz-Thompson tolerance, reproduce bit-identically for a fixed
// (seed, W, B, timestamped input), serve repeated queries from the cached
// merged sample, handle empty/partial rings and zero-entry bucket samples,
// compose with the sharded wrapper in either order, and reject malformed
// keys and non-mergeable inner methods.

#include "window/windowed.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "../api/test_util.h"

namespace sas {
namespace {

using test::RandomItems;

Weight ExactBox(const std::vector<WeightedKey>& items, const Box& box) {
  Weight total = 0.0;
  for (const auto& it : items) {
    if (box.Contains(it.pt)) total += it.weight;
  }
  return total;
}

Weight ExactTotal(const std::vector<WeightedKey>& items) {
  Weight total = 0.0;
  for (const auto& it : items) total += it.weight;
  return total;
}

/// Builds the windowed wrapper and returns the WindowedSummarizer surface.
struct WindowedBuild {
  std::unique_ptr<Summarizer> builder;
  WindowedSummarizer* win = nullptr;
};

WindowedBuild MakeWindowed(const std::string& key,
                           const SummarizerConfig& cfg) {
  WindowedBuild b;
  b.builder = MakeSummarizer(key, cfg);
  b.win = b.builder->AsWindowed();
  EXPECT_NE(b.win, nullptr) << key;
  return b;
}

/// Timestamps items deterministically over [0, horizon) in item order.
std::vector<double> SpreadTimestamps(std::size_t n, double horizon) {
  std::vector<double> ts(n);
  for (std::size_t i = 0; i < n; ++i) {
    ts[i] = horizon * static_cast<double>(i) / static_cast<double>(n);
  }
  return ts;
}

TEST(WindowedKey, ParsesWellFormedKeys) {
  SummarizerConfig cfg;
  cfg.s = 16.0;
  const WindowedBuild plain = MakeWindowed("windowed:3600:60:obliv", cfg);
  EXPECT_DOUBLE_EQ(plain.win->window(), 3600.0);
  EXPECT_EQ(plain.win->buckets(), 60);

  // Decimal window spans and composed inner keys parse; the outer layer
  // takes its own fields.
  const WindowedBuild decimal = MakeWindowed("windowed:2.5:5:product", cfg);
  EXPECT_DOUBLE_EQ(decimal.win->window(), 2.5);
  EXPECT_EQ(decimal.win->buckets(), 5);
  for (const char* key :
       {"windowed:60:4:sharded:2:obliv", "windowed:60:4:windowed:10:2:obliv"}) {
    const WindowedBuild nested = MakeWindowed(key, cfg);
    EXPECT_DOUBLE_EQ(nested.win->window(), 60.0) << key;
    EXPECT_EQ(nested.win->buckets(), 4) << key;
    nested.builder->Add({1, 1.0, {1, 1}});
    EXPECT_EQ(nested.builder->Finalize()->Name(), key);
  }
}

TEST(WindowedKey, MalformedKeysThrow) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  for (const char* bad :
       {"windowed:", "windowed:60", "windowed:60:4", "windowed::4:obliv",
        "windowed:0:4:obliv", "windowed:-1:4:obliv", "windowed:1e3:4:obliv",
        "windowed:abc:4:obliv", "windowed:6.0.0:4:obliv",
        "windowed:60:0:obliv", "windowed:60:-2:obliv",
        "windowed:60:abc:obliv", "windowed:60:4097:obliv",
        "windowed:60:99999999999999999999:obliv", "windowed:60:4:",
        "windowed:60:4:no-such-method"}) {
    EXPECT_THROW(MakeSummarizer(bad, cfg), std::invalid_argument) << bad;
    EXPECT_FALSE(IsRegisteredSummarizer(bad)) << bad;
  }
  // A window span overflowing double's range must fail with the documented
  // exception type (std::stod alone would throw std::out_of_range).
  const std::string huge_w = "windowed:" + std::string(310, '9') + ":8:obliv";
  EXPECT_THROW(MakeSummarizer(huge_w, cfg), std::invalid_argument);
  EXPECT_FALSE(IsRegisteredSummarizer(huge_w));
  const std::string tiny_w =
      "windowed:0." + std::string(330, '0') + "1:8:obliv";
  EXPECT_THROW(MakeSummarizer(tiny_w, cfg), std::invalid_argument);
}

TEST(WindowedKey, RegisteredWhenInnerIs) {
  EXPECT_TRUE(IsRegisteredSummarizer("windowed:60:4:obliv"));
  // The composed wrappers nest in either order.
  EXPECT_TRUE(IsRegisteredSummarizer("windowed:60:4:sharded:2:obliv"));
  EXPECT_TRUE(IsRegisteredSummarizer("sharded:2:windowed:60:4:obliv"));
  EXPECT_FALSE(IsRegisteredSummarizer("windowed:60:4:nope"));
  EXPECT_FALSE(IsRegisteredSummarizer("sharded:2:windowed:60:4:nope"));
}

TEST(WindowedKey, NonMergeableInnerRejected) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  for (const char* inner : {"wavelet", "qdigest", "sketch", "exact"}) {
    EXPECT_THROW(MakeSummarizer("windowed:60:4:" + std::string(inner), cfg),
                 std::invalid_argument)
        << inner;
  }
  cfg.structure = StructureSpec::Disjoint({0, 1}, 2);
  EXPECT_THROW(MakeSummarizer("windowed:60:4:disjoint", cfg),
               std::invalid_argument);
}

TEST(Windowed, FractionalSizeRejected) {
  SummarizerConfig cfg;
  cfg.s = 0.5;  // merged window budget is integral
  EXPECT_THROW(MakeSummarizer("windowed:60:4:product", cfg),
               std::invalid_argument);
}

TEST(Windowed, UntimedUseActsAsOneBucket) {
  // Without Advance the wrapper is a single bucket at time 0: generic call
  // sites (harness, sharded workers) can treat the key like any other.
  Rng data_rng(51);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 500.0;
  cfg.seed = 9001;
  auto builder = MakeSummarizer("windowed:3600:60:obliv", cfg);
  builder->AddBatch(items);
  const auto summary = builder->Finalize();
  EXPECT_EQ(summary->Name(), "windowed:3600:60:obliv");
  ASSERT_NE(summary->AsSample(), nullptr);
  EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() /
                  ExactTotal(items),
              1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(summary->SizeInElements()), 500.0, 1.0);
}

TEST(Windowed, MatchesBatchBuildOverWindowWithinHtTolerance) {
  // The acceptance bar: a windowed build queried at time T and a batch
  // build of the inner method over exactly the live window's items are both
  // unbiased HT estimators of the same sub-stream; their seed-averaged box
  // estimates must agree with the exact value and each other (same bounds
  // as api/sharded_test's sharded-vs-unsharded comparison).
  Rng data_rng(52);
  const auto items = RandomItems(20000, 1 << 14, &data_rng);
  const double horizon = 10.0;
  const auto ts = SpreadTimestamps(items.size(), horizon);

  const double W = 8.0;
  const int B = 4;
  SummarizerConfig probe_cfg;
  probe_cfg.s = 1000.0;
  auto probe = MakeWindowed("windowed:8:4:obliv", probe_cfg);
  // Live window at `horizon`: items whose epoch survives the ring rule.
  const std::int64_t cur = probe.win->EpochOf(horizon);
  std::vector<WeightedKey> window_items;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (probe.win->EpochOf(ts[i]) > cur - B) window_items.push_back(items[i]);
  }
  ASSERT_GT(window_items.size(), items.size() / 3);
  ASSERT_LT(window_items.size(), items.size());
  (void)W;

  const Box box{{0, 1 << 13}, {0, 1 << 14}};  // ~half the domain
  const Weight exact = ExactBox(window_items, box);
  ASSERT_GT(exact, 0.0);

  for (const std::string inner :
       {std::string("obliv"), std::string("product"), std::string("aware")}) {
    double windowed_mean = 0.0, batch_mean = 0.0;
    const int seeds = 10;
    for (int t = 0; t < seeds; ++t) {
      SummarizerConfig cfg;
      cfg.s = 1000.0;
      cfg.seed = 1234 + static_cast<std::uint64_t>(t);
      auto wb = MakeWindowed("windowed:8:4:" + inner, cfg);
      for (std::size_t i = 0; i < items.size(); ++i) {
        wb.win->AddTimed(ts[i], items[i]);
      }
      windowed_mean += wb.win->QueryAt(horizon).EstimateBox(box);

      auto batch = MakeSummarizer(inner, cfg);
      batch->AddBatch(window_items);
      batch_mean += batch->Finalize()->EstimateBox(box);
    }
    windowed_mean /= seeds;
    batch_mean /= seeds;
    EXPECT_NEAR(windowed_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(batch_mean / exact, 1.0, 0.03) << inner;
    EXPECT_NEAR(windowed_mean / batch_mean, 1.0, 0.05) << inner;
  }
}

TEST(Windowed, WindowTotalIsExactForLiveItems) {
  // Every bucket sample preserves its bucket's total and the merge
  // preserves totals exactly, so the window-total estimate equals the sum
  // of live items' weights up to floating point.
  Rng data_rng(53);
  const auto items = RandomItems(8000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 16.0);
  SummarizerConfig cfg;
  cfg.s = 300.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }
  const std::int64_t cur = wb.win->EpochOf(16.0);
  Weight live = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (wb.win->EpochOf(ts[i]) > cur - 4) live += items[i].weight;
  }
  const Sample& window = wb.win->QueryAt(16.0);
  EXPECT_NEAR(window.EstimateTotal() / live, 1.0, 1e-9);
}

TEST(Windowed, BucketExpiryBoundary) {
  // W=8, B=4 => span 2 (exact in floating point). An item exactly W old is
  // always outside the window; one inside the oldest live bucket survives
  // until its whole bucket leaves.
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.0, {0, 5.0, {1, 1}});
  wb.win->AddTimed(2.0, {1, 7.0, {2, 2}});

  // Just before the boundary both items are live.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(7.5).EstimateTotal(), 12.0);
  // At now=8 the ts=0 item is exactly W old: its epoch (0) has left the
  // ring (live epochs are 1..4); the ts=2 item remains.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(8.0).EstimateTotal(), 7.0);
  EXPECT_EQ(wb.win->live_buckets(), 1);
  // The ts=2 bucket (epoch 1) expires once the clock reaches 10.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(10.0).EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);
}

TEST(Windowed, LateItemsJoinCurrentBucketOrDrop) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->Advance(9.0);  // current epoch 4, live epochs 1..4

  // ts=3 (epoch 1) is late but inside the window: kept, in the current
  // bucket.
  wb.win->AddTimed(3.0, {0, 5.0, {1, 1}});
  EXPECT_EQ(wb.win->late_items(), 1u);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(9.0).EstimateTotal(), 5.0);

  // ts=1 (epoch 0) has left the window: dropped.
  wb.win->AddTimed(1.0, {1, 7.0, {2, 2}});
  EXPECT_EQ(wb.win->dropped_items(), 1u);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(9.0).EstimateTotal(), 5.0);

  // Because the late item sits in the epoch-4 bucket, it outlives its
  // timestamp's own bucket (documented: up to one span late).
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(11.5).EstimateTotal(), 5.0);
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(18.0).EstimateTotal(), 0.0);
}

TEST(Windowed, EmptyAndPartialRings) {
  SummarizerConfig cfg;
  cfg.s = 100.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);

  // Query over a never-fed ring.
  const Sample& empty = wb.win->QueryAt(100.0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);

  // One mid-epoch bucket only (partial ring): the few items fit in the
  // budget, so the estimate is exact.
  wb.win->AddTimed(100.5, {0, 3.0, {1, 1}});
  wb.win->AddTimed(100.6, {1, 4.0, {5, 5}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(100.7).EstimateTotal(), 7.0);
  EXPECT_EQ(wb.win->live_buckets(), 1);

  // Sealed + current buckets with gaps (empty epochs in between).
  wb.win->AddTimed(104.5, {2, 10.0, {9, 9}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(104.5).EstimateTotal(), 17.0);
  EXPECT_EQ(wb.win->live_buckets(), 2);

  // Advancing far past everything empties the ring again.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(1000.0).EstimateTotal(), 0.0);
  EXPECT_EQ(wb.win->live_buckets(), 0);
}

TEST(Windowed, ZeroEntryBucketSamplesMerge) {
  // Buckets fed only non-positive weights finalize to zero-entry samples;
  // the window merge must carry them without disturbing live mass.
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.5, {0, 0.0, {1, 1}});   // zero-weight bucket
  wb.win->AddTimed(2.5, {1, 6.0, {2, 2}});   // real bucket
  wb.win->AddTimed(4.5, {2, 0.0, {3, 3}});   // zero-weight bucket
  const Sample& window = wb.win->QueryAt(6.0);
  EXPECT_DOUBLE_EQ(window.EstimateTotal(), 6.0);
  EXPECT_EQ(window.size(), 1u);
  // All three buckets are live (their buffers were non-empty), two of them
  // with zero-entry samples.
  EXPECT_EQ(wb.win->live_buckets(), 3);
}

TEST(Windowed, QueryAtReusesCachedMergeUntilRingAdvances) {
  Rng data_rng(54);
  const auto items = RandomItems(4000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 6.0);
  SummarizerConfig cfg;
  cfg.s = 200.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }

  const Sample& first = wb.win->QueryAt(6.0);
  const std::size_t merges = wb.win->merges_performed();
  const double tau = first.tau();
  const std::vector<WeightedKey> entries = first.entries();

  // Repeated queries — including advances that stay inside the current
  // epoch — return the identical sample without re-merging.
  for (double t : {6.0, 6.2, 6.9, 7.999}) {
    const Sample& again = wb.win->QueryAt(t);
    EXPECT_EQ(wb.win->merges_performed(), merges) << t;
    EXPECT_DOUBLE_EQ(again.tau(), tau) << t;
    ASSERT_EQ(again.entries().size(), entries.size()) << t;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(again.entries()[i].id, entries[i].id);
    }
  }

  // New items invalidate the cache...
  wb.win->AddTimed(7.999, {99999, 1.0, {1, 1}});
  (void)wb.win->QueryAt(7.999);
  EXPECT_EQ(wb.win->merges_performed(), merges + 1);
  // ...and so does crossing an epoch boundary.
  (void)wb.win->QueryAt(8.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 2);
}

TEST(Windowed, DirectAdvanceAcrossEpochsInvalidatesCachedMerge) {
  // Coverage gap found in audit: the cache tests above invalidate via new
  // items or via QueryAt's own implicit advance — a *direct* Advance()
  // crossing an epoch (the ingest-thread path) must also invalidate, or a
  // subsequent query would serve expired buckets from the stale cache.
  Rng data_rng(61);
  const auto items = RandomItems(3000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 6.0);
  SummarizerConfig cfg;
  cfg.s = 150.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }

  const Sample& first = wb.win->QueryAt(6.0);
  const std::size_t merges = wb.win->merges_performed();
  const double total_before = first.EstimateTotal();
  EXPECT_GT(total_before, 0.0);

  // Direct advance across an epoch boundary, no new items: the next query
  // must re-merge (one bucket started expiring from the ring).
  wb.win->Advance(10.0);
  const Sample& after = wb.win->QueryAt(10.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 1);
  EXPECT_LT(after.EstimateTotal(), total_before);

  // Full expiry: an advance far past the horizon leaves an empty window,
  // not a stale cached one.
  wb.win->Advance(1000.0);
  const Sample& empty = wb.win->QueryAt(1000.0);
  EXPECT_EQ(wb.win->merges_performed(), merges + 2);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_DOUBLE_EQ(empty.EstimateTotal(), 0.0);
}

TEST(Windowed, PublishHookFiresPerRingAdvanceWithTheMergedWindow) {
  Rng data_rng(62);
  const auto items = RandomItems(2000, 1 << 12, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 12.0);
  SummarizerConfig cfg;
  cfg.s = 100.0;

  // Without a hook the ring merges lazily: streaming alone performs none.
  auto plain = MakeWindowed("windowed:8:4:obliv", cfg);
  for (std::size_t i = 0; i < items.size(); ++i) {
    plain.win->AddTimed(ts[i], items[i]);
  }
  EXPECT_EQ(plain.win->merges_performed(), 0u);

  // With a hook, every ring advance publishes the merged window eagerly.
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  std::size_t fires = 0;
  double last_total = -1.0;
  std::size_t last_size = 0;
  wb.win->SetPublishHook([&](const Sample& merged) {
    ++fires;
    last_total = merged.EstimateTotal();
    last_size = merged.size();
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    wb.win->AddTimed(ts[i], items[i]);
  }
  // Bucket width 2, timestamps in [0, 12): epochs 1..5 were crossed.
  EXPECT_EQ(fires, 5u);

  // An advance with no trailing items: the hook's view IS the cached
  // merge, so querying at the same clock returns it bit-identically
  // without re-merging.
  wb.win->Advance(12.0);
  EXPECT_EQ(fires, 6u);
  const std::size_t merges = wb.win->merges_performed();
  const Sample& q = wb.win->QueryAt(12.0);
  EXPECT_EQ(wb.win->merges_performed(), merges);
  EXPECT_EQ(q.EstimateTotal(), last_total);
  EXPECT_EQ(q.size(), last_size);

  // A null hook uninstalls: further advances go back to lazy merging.
  wb.win->SetPublishHook(nullptr);
  wb.win->Advance(14.0);
  EXPECT_EQ(fires, 6u);
}

TEST(Windowed, DeterministicForFixedSeedWindowAndBuckets) {
  Rng data_rng(55);
  const auto items = RandomItems(12000, 1 << 13, &data_rng);
  const auto ts = SpreadTimestamps(items.size(), 20.0);

  auto run = [&](std::uint64_t seed) {
    SummarizerConfig cfg;
    cfg.s = 400.0;
    cfg.seed = seed;
    auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
    for (std::size_t i = 0; i < items.size(); ++i) {
      wb.win->AddTimed(ts[i], items[i]);
      // Interleave queries: cache rebuilds must not perturb determinism.
      if (i % 3000 == 0) (void)wb.win->QueryAt(ts[i]);
    }
    // Many epochs were sealed, so the recycling path was exercised.
    EXPECT_GT(wb.win->recycled_builders(), 0u);
    Sample out = wb.win->QueryAt(20.0);
    return out;
  };

  const Sample a = run(77);
  const Sample b = run(77);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.tau(), b.tau());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id) << i;
    EXPECT_DOUBLE_EQ(a.entries()[i].weight, b.entries()[i].weight) << i;
  }

  // A different seed is a different (still unbiased) draw.
  const Sample c = run(78);
  bool same = a.size() == c.size() && a.tau() == c.tau();
  if (same) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      same = same && a.entries()[i].id == c.entries()[i].id;
    }
  }
  EXPECT_FALSE(same);
}

TEST(Windowed, RecycledBuilderMatchesFreshBuilder) {
  // The Reset capability contract: a spent-then-Reset builder must behave
  // exactly like a fresh one with the same seed. (The windowed ring relies
  // on this for bucket-rebuild determinism.)
  Rng data_rng(56);
  const auto items = RandomItems(6000, 1 << 12, &data_rng);
  const std::vector<WeightedKey> first_half(items.begin(),
                                            items.begin() + 3000);
  const std::vector<WeightedKey> second_half(items.begin() + 3000,
                                             items.end());

  for (const std::string inner : {std::string("obliv"), std::string("order"),
                                  std::string("product"), std::string("nd")}) {
    SummarizerConfig cfg;
    cfg.s = 100.0;
    cfg.seed = 5;
    if (inner == "nd") cfg.structure = StructureSpec::Nd(2);

    auto recycled = MakeSummarizer(inner, cfg);
    recycled->AddBatch(first_half);
    (void)recycled->Finalize();
    ASSERT_TRUE(recycled->Reset(4242)) << inner;
    recycled->AddBatch(second_half);
    const auto ra = recycled->Finalize();

    SummarizerConfig fresh_cfg = cfg;
    fresh_cfg.seed = 4242;
    auto fresh = MakeSummarizer(inner, fresh_cfg);
    fresh->AddBatch(second_half);
    const auto rb = fresh->Finalize();

    const Sample& sa = ra->AsSample()->sample();
    const Sample& sb = rb->AsSample()->sample();
    ASSERT_EQ(sa.size(), sb.size()) << inner;
    EXPECT_DOUBLE_EQ(sa.tau(), sb.tau()) << inner;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.entries()[i].id, sb.entries()[i].id) << inner << " " << i;
    }
  }

  // Methods without the capability report false from Reset.
  SummarizerConfig cfg;
  cfg.s = 100.0;
  cfg.bits_x = 12;
  cfg.bits_y = 12;
  auto sketch = MakeSummarizer("sketch", cfg);
  EXPECT_FALSE(sketch->Reset(1));
}

TEST(Windowed, ComposesWithShardedInEitherOrder) {
  Rng data_rng(57);
  const auto items = RandomItems(12000, 1 << 12, &data_rng);
  const Weight exact_total = ExactTotal(items);

  // Outer sharded, inner windowed: worker threads each own a (untimed)
  // window ring; totals survive the two merge layers exactly.
  {
    SummarizerConfig cfg;
    cfg.s = 300.0;
    auto builder = MakeSummarizer("sharded:2:windowed:60:4:obliv", cfg);
    builder->AddBatch(items);
    const auto summary = builder->Finalize();
    EXPECT_EQ(summary->Name(), "sharded:2:windowed:60:4:obliv");
    EXPECT_NEAR(summary->AsSample()->sample().EstimateTotal() / exact_total,
                1.0, 1e-9);
  }

  // Outer windowed, inner sharded: every bucket rebuild runs the
  // worker-pool ingest; timed expiry still applies.
  {
    const auto ts = SpreadTimestamps(items.size(), 16.0);
    SummarizerConfig cfg;
    cfg.s = 300.0;
    auto wb = MakeWindowed("windowed:8:4:sharded:2:obliv", cfg);
    for (std::size_t i = 0; i < items.size(); ++i) {
      wb.win->AddTimed(ts[i], items[i]);
    }
    const std::int64_t cur = wb.win->EpochOf(16.0);
    Weight live = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (wb.win->EpochOf(ts[i]) > cur - 4) live += items[i].weight;
    }
    const Sample& window = wb.win->QueryAt(16.0);
    EXPECT_NEAR(window.EstimateTotal() / live, 1.0, 1e-9);
    EXPECT_LT(window.EstimateTotal(), exact_total);  // expiry really happened
  }
}

TEST(Windowed, ShardedInnerHoldsNoIdleThreads) {
  // The constructor's Reset probe of a sharded inner builder must not
  // start its worker pool: the workers exist only while a bucket builds.
  const int base = test::ThreadCount();
  if (base < 0) GTEST_SKIP() << "/proc/self/task is not available";
  SummarizerConfig cfg;
  cfg.s = 50.0;
  auto builder = MakeSummarizer("windowed:60:4:sharded:8:obliv", cfg);
  EXPECT_LE(test::ThreadCount(), base);
}

TEST(Windowed, SpentBuilderThrows) {
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  wb.win->AddTimed(0.5, {0, 1.0, {0, 0}});
  (void)wb.builder->Finalize();
  EXPECT_THROW(wb.builder->Add({1, 1.0, {1, 0}}), std::logic_error);
  EXPECT_THROW(wb.win->AddTimed(1.0, {1, 1.0, {1, 0}}), std::logic_error);
  EXPECT_THROW(wb.win->Advance(2.0), std::logic_error);
  EXPECT_THROW(wb.win->QueryAt(2.0), std::logic_error);
  EXPECT_THROW(wb.builder->Finalize(), std::logic_error);
}

TEST(Windowed, NonFiniteTimesRejected) {
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:8:4:obliv", cfg);
  const double nan = std::nan("");
  EXPECT_THROW(wb.win->Advance(nan), std::invalid_argument);
  EXPECT_THROW(wb.win->AddTimed(nan, {0, 1.0, {0, 0}}),
               std::invalid_argument);
  // The clock is monotone: a past time is a no-op, not an error.
  wb.win->Advance(5.0);
  wb.win->Advance(1.0);
  EXPECT_DOUBLE_EQ(wb.win->now(), 5.0);
}

TEST(Windowed, AstronomicalTimestampsClampInsteadOfOverflowing) {
  // Nanosecond-scale epoch timestamps against a sub-second bucket span push
  // ts/span past the int64 range; the epoch must clamp (keeping the wrapper
  // functional in the extreme regime) rather than hit undefined behavior.
  SummarizerConfig cfg;
  cfg.s = 10.0;
  auto wb = MakeWindowed("windowed:1:4096:obliv", cfg);
  const double ns_epoch = 1.7e18;
  wb.win->AddTimed(ns_epoch, {0, 3.0, {1, 1}});
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(ns_epoch).EstimateTotal(), 3.0);
  // All clamped times share the extreme epoch, so the item stays current.
  EXPECT_DOUBLE_EQ(wb.win->QueryAt(1.8e18).EstimateTotal(), 3.0);
  EXPECT_GT(wb.win->EpochOf(ns_epoch), 0);
  EXPECT_LT(wb.win->EpochOf(-ns_epoch), 0);
}

TEST(Windowed, AddCoordsUnsupported) {
  SummarizerConfig cfg;
  cfg.s = 50.0;
  cfg.structure = StructureSpec::Nd(2);
  auto builder = MakeSummarizer("windowed:8:4:nd", cfg);
  const Coord coords[2] = {1, 2};
  EXPECT_THROW(builder->AddCoords(coords, 2, 1.0), std::logic_error);
  builder->Add({0, 1.0, {1, 2}});  // the Add path works
  EXPECT_EQ(builder->Finalize()->SizeInElements(), 1u);
}

}  // namespace
}  // namespace sas
