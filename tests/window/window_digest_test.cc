// Digests that pin timed windowed builds bit for bit: every bucket seal,
// every mid-epoch query (which builds a partial sample of the current
// bucket) and the final window, for plain, structure-aware and sharded
// inner keys, with and without a max_bytes budget that degrades the bucket
// sample size mid-stream.
//
// Each digest is FNV-1a over the tau bits, the size and the entries in
// output order (id, weight bits, x, y) of every queried sample and of the
// finalized one. The constants were recorded against the library before
// windowed buckets were built by fresh inner builders, when spent builders
// were recycled; a fresh inner builder under the same seed must reproduce
// them.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/summary.h"
#include "core/random.h"
#include "window/windowed.h"
#include "../api/test_util.h"

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
  void Add(const Sample& sample) {
    Add(sample.tau());
    Add(static_cast<std::uint64_t>(sample.size()));
    for (const WeightedKey& k : sample.entries()) {
      Add(static_cast<std::uint64_t>(k.id));
      Add(k.weight);
      Add(static_cast<std::uint64_t>(k.pt.x));
      Add(static_cast<std::uint64_t>(k.pt.y));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

struct TimedRun {
  std::uint64_t digest = 0;
  std::uint64_t degradations = 0;
};

/// 6000 items over [0, 40) in a window of 8 with 4 buckets: 20 epochs, so
/// every ring slot is sealed and retired several times. A query lands
/// mid-epoch every 250 items.
TimedRun RunTimed(const std::string& key, std::size_t max_bytes) {
  Rng data_rng(808);
  const std::vector<WeightedKey> items =
      test::RandomItems(6000, Coord{1} << 16, &data_rng);
  SummarizerConfig cfg;
  cfg.s = 64.0;
  cfg.seed = 31337;
  cfg.structure = StructureSpec::Product();
  cfg.max_bytes = max_bytes;
  auto builder = MakeSummarizer(key, cfg);
  WindowedSummarizer* win = builder->AsWindowed();
  EXPECT_NE(win, nullptr) << key;
  Fnv1a h;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double ts = 40.0 * static_cast<double>(i) /
                      static_cast<double>(items.size());
    win->AddTimed(ts, items[i]);
    if (i % 250 == 125) h.Add(win->QueryAt(ts + 0.25));
  }
  h.Add(win->QueryAt(41.0));
  const auto summary = builder->Finalize();
  EXPECT_NE(summary->AsSample(), nullptr) << key;
  h.Add(summary->AsSample()->sample());
  return {h.value(), builder->Describe().degradations};
}

struct Pinned {
  const char* key;
  std::uint64_t digest;
};

TEST(WindowDigest, TimedRingWithMidEpochQueries) {
  const std::vector<Pinned> pinned = {
      {"windowed:8:4:obliv", 0x4f44ae770820d536ULL},
      {"windowed:8:4:order", 0xff45b075a04b452dULL},
      {"windowed:8:4:sharded:2:obliv", 0xd6aa2f665fabb602ULL},
  };
  for (const Pinned& p : pinned) {
    const TimedRun run = RunTimed(p.key, /*max_bytes=*/0);
    EXPECT_EQ(run.degradations, 0u) << p.key;
    EXPECT_EQ(run.digest, p.digest)
        << p.key << ": 0x" << std::hex << run.digest;
  }
}

TEST(WindowDigest, BudgetDegradedRing) {
  // Four retained samples of s = 64 need 16 KiB at 64 bytes an entry; a
  // 6 KiB budget halves the bucket s as the ring fills, mid-stream.
  const std::vector<Pinned> pinned = {
      {"windowed:8:4:obliv", 0xf1d43346e0c4a351ULL},
      {"windowed:8:4:order", 0xa6b9079ce096a2bfULL},
      {"windowed:8:4:sharded:2:obliv", 0x37cf452b4c705056ULL},
  };
  for (const Pinned& p : pinned) {
    const TimedRun run = RunTimed(p.key, /*max_bytes=*/6 * 1024);
    EXPECT_GE(run.degradations, 2u) << p.key;
    EXPECT_EQ(run.digest, p.digest)
        << p.key << ": 0x" << std::hex << run.digest;
  }
}

}  // namespace
}  // namespace sas
