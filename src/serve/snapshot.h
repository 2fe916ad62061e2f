// ServingSnapshot: an immutable, query-accelerated view of one finalized
// Sample, built once at publish time and shared read-only by any number of
// concurrent readers (src/serve/query_service.h owns publication and
// reclamation; this type is just the data).
//
// Acceleration structures, all built in the constructor:
//
//   * The library's box-query index (core/box_index.h) for box and
//     multi-rectangle estimates.
//   * A position index sorted by key id, with a prefix array of
//     Horvitz-Thompson adjusted weights, so id-range estimates localize
//     their matches with binary search instead of scanning all s entries.
//   * A Vose alias table over the adjusted weights — one O(1) lookup per
//     sample-proportional entry draw (cf. the alias-table samplers in
//     SNIPPETS.md), for serving-side drawdowns such as "give me k
//     representative flows".
//
// Bit-identity contract: the default estimate paths (EstimateIdRange /
// EstimateBox / EstimateQuery) return bit-identical doubles to the linear
// Sample scans (Sample::EstimateSubset / EstimateBox / EstimateQuery).
// Floating-point addition is not associative, so this is only possible by
// preserving the linear scan's addition order: each path marks its matching
// positions in the reader's position bitmap and sums the marked entries in
// ascending position order — exactly the same additions in exactly the
// same order, and an entry matched twice (overlapping rectangles) is summed
// once. EstimateIdRangeFast differences the id prefix sums instead — true
// O(log s), but re-associated: equal to the linear scan only up to
// ulp-level error (the same contract as the SIMD reductions,
// docs/architecture.md).
//
// Thread-safety: every method is const and the object is deeply immutable
// after construction; any number of threads may query one snapshot
// concurrently, each with its own QueryScratch (scratch is the only
// mutable state, and it is caller-owned).

#ifndef SAS_SERVE_SNAPSHOT_H_
#define SAS_SERVE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/box_index.h"
#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// Per-reader reusable scratch for the bit-identical estimate paths: the
/// position bitmap (one bit per snapshot entry). One per reader thread;
/// queries allocate nothing once the bitmap has grown to the largest
/// snapshot the reader has queried.
struct QueryScratch {
  PositionBitmap bitmap;
};

class ServingSnapshot {
 public:
  /// Deep-copies `sample` and builds every acceleration structure.
  /// O(s log s) once per publish.
  explicit ServingSnapshot(const Sample& sample);

  ServingSnapshot(const ServingSnapshot&) = delete;
  ServingSnapshot& operator=(const ServingSnapshot&) = delete;

  const Sample& sample() const { return sample_; }
  std::size_t size() const { return sample_.size(); }
  double tau() const { return sample_.tau(); }

  /// Total adjusted weight, precomputed at build with the sequential scan —
  /// bit-identical to sample().EstimateTotal().
  Weight TotalWeight() const { return total_weight_; }

  // --- Bit-identical accelerated estimates -------------------------------

  /// HT estimate of the keys with id in [lo, hi). Bit-identical to
  /// sample().EstimateSubset(id in [lo, hi)); O(log s + k + s/64) for k
  /// matches.
  Weight EstimateIdRange(KeyId lo, KeyId hi, QueryScratch* scratch) const;

  /// HT estimate inside an axis-parallel box. Bit-identical to
  /// sample().EstimateBox(box); O(log s + kx + s/64) for kx entries
  /// matching the x interval.
  Weight EstimateBox(const Box& box, QueryScratch* scratch) const;

  /// HT estimate of a multi-rectangle query. Bit-identical to
  /// sample().EstimateQuery(q), overlapping rectangles included.
  Weight EstimateQuery(const MultiRangeQuery& q, QueryScratch* scratch) const;

  /// Sampled keys inside the box (exact count from the box index; no
  /// scratch needed — counting is order-free).
  std::size_t CountInBox(const Box& box) const {
    return box_index_.CountInBox(box);
  }

  /// Prefix-sum difference over the id-sorted index: O(log s) flat, but the
  /// additions are re-associated — agrees with EstimateIdRange only to
  /// ulp-level accuracy.
  Weight EstimateIdRangeFast(KeyId lo, KeyId hi) const;

  // --- Alias-table drawdowns ---------------------------------------------

  /// One sample-proportional draw: entry index distributed proportionally
  /// to the adjusted weights, O(1) per draw (Vose alias method). Throws
  /// std::logic_error on an empty snapshot.
  std::size_t DrawIndex(Rng* rng) const;

  /// Convenience: the drawn entry itself.
  const WeightedKey& Draw(Rng* rng) const {
    return sample_.entries()[DrawIndex(rng)];
  }

 private:
  /// Adjusted weight of the entry at position `p` (original sample order).
  Weight AdjustedAt(std::uint32_t p) const {
    return sample_.AdjustedWeight(sample_.entries()[p]);
  }

  Sample sample_;
  Weight total_weight_ = 0.0;
  BoxIndex box_index_;

  // Id index: by_id_[r] is the entry position of rank r under (id,
  // position) order; id_keys_ mirrors the sort key for cache-friendly
  // binary search; prefix_id_[r] is the adjusted-weight prefix sum over
  // by_id_[0..r) (EstimateIdRangeFast).
  std::vector<std::uint32_t> by_id_;
  std::vector<KeyId> id_keys_;
  std::vector<double> prefix_id_;

  // Vose alias table over the adjusted weights: a draw picks column c
  // uniformly, then returns c with probability accept_[c], alias_[c]
  // otherwise.
  std::vector<double> accept_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace sas

#endif  // SAS_SERVE_SNAPSHOT_H_
