// Entry-order-sensitive digests of the two structure-oblivious VarOpt
// entry points, MergeSamples and VarOptOffline.
//
// Each digest is FNV-1a over, per call: the sample's tau bits, its size,
// every entry in output order (id, weight bits, x, y), and the next raw
// draw of the caller's Rng after the call. So a digest moves if a single
// entry, its position, the threshold, or the number of draws consumed
// moves. The cases cover fixed seeds, s from 1 up to and past the number
// of entries (the keep-everything shortcut of the merge, the tau = 0 path
// of VarOptOffline), zero weights, zero-entry merge parts, and merges of
// merges (the nested sharded:/windowed: shape). The constants were
// recorded before the merge and VarOptOffline were routed through the
// build pipeline, and must not move under a refactor of either.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "aware/merge.h"
#include "core/random.h"
#include "core/sample.h"
#include "sampling/varopt_offline.h"

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

  /// Folds in the sample, entry order included, and the caller's next draw.
  void AddCall(const Sample& sample, Rng* rng) {
    Add(sample.tau());
    Add(static_cast<std::uint64_t>(sample.size()));
    for (const WeightedKey& e : sample.entries()) {
      Add(static_cast<std::uint64_t>(e.id));
      Add(e.weight);
      Add(static_cast<std::uint64_t>(e.pt.x));
      Add(static_cast<std::uint64_t>(e.pt.y));
    }
    Add(rng->Next());
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// n items with distinct ids starting at `first_id`; every `zero_every`-th
/// weight is 0 (none when 0).
std::vector<WeightedKey> Items(std::size_t n, KeyId first_id,
                               std::size_t zero_every, Rng* rng) {
  std::vector<WeightedKey> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool zero = zero_every != 0 && i % zero_every == 0;
    items[i] = {first_id + static_cast<KeyId>(i),
                zero ? 0.0 : rng->NextPareto(1.2),
                {rng->NextBounded(1u << 16), rng->NextBounded(1u << 16)}};
  }
  return items;
}

/// MergeSamples over a braced part list (std::span takes none).
Sample Merge(const std::vector<const Sample*>& parts, std::size_t s,
             Rng* rng, MergeScratch* scratch) {
  return MergeSamples(parts, s, rng, scratch);
}

TEST(VarOptDigest, VarOptOffline) {
  Rng data_rng(2031);
  const std::vector<WeightedKey> dense = Items(1500, 0, 0, &data_rng);
  const std::vector<WeightedKey> sparse = Items(600, 5000, 5, &data_rng);
  const std::vector<WeightedKey> none;
  struct Case {
    const std::vector<WeightedKey>* items;
    double s;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {&dense, 1.0, 0x1f5b841e33e61adbULL},
      {&dense, 37.0, 0x179d6f2212374583ULL},
      {&dense, 200.5, 0xa9df5cd600d646efULL},
      {&dense, 1499.0, 0x741ab91e9249c375ULL},
      {&dense, 1500.0, 0x5802c2f1399a4afcULL},  // s >= n: tau 0
      {&dense, 4000.0, 0x5802c2f1399a4afcULL},
      {&sparse, 50.0, 0x4fbc21771c3f50d1ULL},
      {&sparse, 479.0, 0xea4aff1a206b77e3ULL},
      {&sparse, 480.0, 0x528b334b2cee4cbbULL},  // s >= positive weights
      {&none, 5.0, 0xd08216c3da1aa934ULL},
  };
  for (const Case& c : cases) {
    Fnv1a h;
    for (std::uint64_t seed : {1ULL, 77ULL, 4242ULL}) {
      Rng rng(seed);
      h.AddCall(VarOptOffline(*c.items, c.s, &rng), &rng);
    }
    EXPECT_EQ(h.value(), c.digest)
        << "n=" << c.items->size() << " s=" << c.s << ": 0x" << std::hex
        << h.value();
  }
}

TEST(VarOptDigest, MergeSamples) {
  Rng data_rng(2032);
  const std::vector<WeightedKey> a_items = Items(900, 0, 0, &data_rng);
  const std::vector<WeightedKey> b_items = Items(700, 10000, 7, &data_rng);
  const std::vector<WeightedKey> c_items = Items(300, 20000, 0, &data_rng);
  Rng part_rng(2033);
  const Sample a = VarOptOffline(a_items, 120.0, &part_rng);
  const Sample b = VarOptOffline(b_items, 90.0, &part_rng);
  const Sample c = VarOptOffline(c_items, 300.0, &part_rng);  // tau 0
  const Sample empty;
  const Sample empty_tau(3.0, {});
  const std::size_t ab = a.size() + b.size();
  const std::size_t all = ab + c.size();
  ASSERT_EQ(c.size(), 300u);

  struct Case {
    std::vector<const Sample*> parts;
    std::size_t s;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {{&a, &b}, 1, 0x01a41e8fc4eb7cc6ULL},
      {{&a, &b}, 40, 0xe831625bfeb27712ULL},
      {{&a, &b}, 150, 0x9120bc97865d92d9ULL},
      {{&a, &b}, ab - 1, 0x79aead1c31b852d9ULL},
      {{&a, &b}, ab, 0x7193bab83113a8c6ULL},  // all fit: tau 0, no draws
      {{&a, &b}, ab + 25, 0x7193bab83113a8c6ULL},
      {{&empty, &a, &empty_tau, &b, &c}, 100, 0xe39644496e976dd4ULL},
      {{&c, &b, &a}, 333, 0xe8023a5b8e3f9adfULL},
      {{&a, &b, &c}, all, 0xf1ab108e349990a6ULL},
      {{&empty, &empty_tau}, 10, 0xccf17e5a54ae73ffULL},
  };
  MergeScratch scratch;  // reused across every call
  for (std::size_t k = 0; k < cases.size(); ++k) {
    Fnv1a h;
    for (std::uint64_t seed : {3ULL, 99ULL, 31337ULL}) {
      Rng rng(seed);
      h.AddCall(Merge(cases[k].parts, cases[k].s, &rng, &scratch), &rng);
    }
    EXPECT_EQ(h.value(), cases[k].digest)
        << "case " << k << ": 0x" << std::hex << h.value();
  }
}

TEST(VarOptDigest, MergesOfMerges) {
  // Four leaves merged pairwise, then the two halves merged: the nested
  // sharded:2:sharded:2:... shape, one fresh scratch per merge.
  Rng data_rng(2034);
  std::vector<Sample> leaves;
  Rng leaf_rng(2035);
  for (KeyId p = 0; p < 4; ++p) {
    leaves.push_back(VarOptOffline(Items(400, p * 1000, 9, &data_rng),
                                   60.0 + 10.0 * p, &leaf_rng));
  }
  Fnv1a h;
  for (std::size_t s : {std::size_t{1}, std::size_t{50}, std::size_t{120},
                        std::size_t{500}}) {
    Rng rng(s);
    MergeScratch s1, s2, s3;
    const Sample left = Merge({&leaves[0], &leaves[1]}, s, &rng, &s1);
    const Sample right = Merge({&leaves[2], &leaves[3]}, s, &rng, &s2);
    h.AddCall(left, &rng);
    h.AddCall(right, &rng);
    h.AddCall(Merge({&left, &right}, s, &rng, &s3), &rng);
  }
  EXPECT_EQ(h.value(), 0x65668d0bb6332b8dULL) << "0x" << std::hex << h.value();
}

}  // namespace
}  // namespace sas
