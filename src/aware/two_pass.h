// I/O-efficient structure-aware sampling (Section 5).
//
// Two read-only streaming passes over the (unsorted) data with memory
// O~(s):
//   Pass 1: compute the IPPS threshold tau_s (Algorithm 4) and draw a
//           structure-oblivious guide sample S' of size s' = factor * s
//           (stream VarOpt).
//   Between passes: build a partition L of the key domain from S' such that
//           with high probability p(L) <= 1 for every cell.
//   Pass 2: IO-AGGREGATE (Algorithm 3) — maintain one active key per cell;
//           pair-aggregate each arriving key with its cell's active key.
//   Final:  aggregate the remaining active keys along the partition's
//           tree with the in-memory samplers' TreeAggregate.
//
// Partitions: product structures (kd-tree over S'; final tree = the
// locate table reversed), order structures (subintervals between
// consecutive S' keys; one chain in cell order), disjoint ranges (one
// chain in cell order) and hierarchies (linearization — Delta < 2 — or
// lowest selected ancestors, aggregated per node). The in-memory variants
// are positional like their one-pass twins: items[i]'s structure is
// range_of[i] / hierarchy leaf leaf_of_key(i), whatever its id.
//
// The product sampler's pass 2 is batched: Pass2Batch locates 16 items at
// a time in a compact 16-byte-per-node table and aggregates them in input
// order, bit-identical to a per-item Pass2 loop, in O(cells) memory. Its
// phases record the `twopass.partition`, `twopass.pass2` and
// `twopass.final` telemetry spans.

#ifndef SAS_AWARE_TWO_PASS_H_
#define SAS_AWARE_TWO_PASS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/random.h"
#include "core/sample.h"
#include "core/types.h"
#include "structure/hierarchy.h"

namespace sas {

/// One partition cell's IO-AGGREGATE state during pass 2: the cell's open
/// active key, if any.
struct TwoPassCell {
  WeightedKey key;
  double p = 0.0;
  bool present = false;
};

/// Pass-1 state of every construction (the streaming threshold and the
/// guide sample); defined in two_pass.cc.
struct TwoPassGuide;

struct TwoPassConfig {
  /// Oversampling factor: s' = factor * s (the paper uses 5).
  double sprime_factor = 5.0;
};

/// Streaming two-pass summarizer for 2-D product structures. Call Pass1
/// over every item, then BeginPass2, then Pass2Batch (or Pass2) over every
/// item (any order, any batching), then Finalize; a call out of that
/// sequence throws std::logic_error. The convenience function below wraps
/// this for in-memory vectors, iterating them like a stream.
///
/// The partition is the kd tree over the guide keys, flattened by
/// BeginPass2 into a 16-byte-per-node locate table (split, next, axis):
/// siblings are adjacent, an internal node's `next` is its left child (the
/// right one is next + 1), and a leaf's `next` is its cell id. Pass 2
/// descends that table and Finalize aggregates bottom-up along it, so
/// pass-2 memory is O(cells) and no pointer-based tree outlives BeginPass2.
class TwoPassProductSampler {
 public:
  TwoPassProductSampler(double s, TwoPassConfig cfg, Rng rng);
  ~TwoPassProductSampler();  // out-of-line: TwoPassGuide is incomplete here

  void Pass1(const WeightedKey& item);

  /// Builds the partition from the pass-1 state. Memory O(s').
  void BeginPass2();

  /// Pass 2 over a batch of items: locates the batch's cells 16 items at a
  /// time, descending the table in lockstep so their cache misses overlap,
  /// then runs IO-AGGREGATE (Algorithm 3) over the items in input order.
  /// Bit-identical to calling Pass2 on each item in turn: the same tau,
  /// the same draws, and the same sample entries in the same order.
  void Pass2Batch(std::span<const WeightedKey> items);

  /// Pass 2 over one item: the Pass2Batch body on a batch of one (without
  /// the phase span, which would cost more than the item).
  void Pass2(const WeightedKey& item);

  /// Aggregates the remaining active keys along the kd-tree and returns the
  /// final sample of size (essentially) s.
  Sample Finalize();

  double tau() const { return tau_; }

  /// Number of partition cells (kd leaves over the guide sample).
  std::size_t num_cells() const { return active_.size(); }

 private:
  enum class Phase { kPass1, kPass2, kDone };
  void RequirePhase(Phase want, const char* call) const;
  void RunPass2(std::span<const WeightedKey> items);

  // sas-lint: allow(unforked-rng): member slot only; every constructor
  // copies it from the caller-provided generator.
  Rng rng_;
  Phase phase_ = Phase::kPass1;

  // Pass-1 state (defined in two_pass.cc to keep this header light).
  std::unique_ptr<TwoPassGuide> pass1_;

  // Pass-2 state.
  double tau_ = 0.0;
  /// One node of the flattened partition; axis < 0 marks a leaf.
  struct LocateNode {
    Coord split = 0;        // points with axis-coord < split go to `next`
    std::int32_t next = 0;  // left child (right = next + 1), or leaf cell
    std::int32_t axis = -1;
  };
  static_assert(sizeof(LocateNode) == 16);
  std::vector<LocateNode> locate_;  // node 0 is the root
  std::vector<TwoPassCell> active_;  // one slot per cell
  std::vector<WeightedKey> sample_;
};

/// Runs both passes over `items` (pass 2 as one Pass2Batch) and returns
/// the sample: the registry's "aware" builder, under Rng(cfg.seed).
Sample TwoPassProductSample(const std::vector<WeightedKey>& items, double s,
                            const TwoPassConfig& cfg, Rng* rng);

/// Two-pass summarizer for order structures (1-D, ordered by pt.x): the
/// partition consists of the intervals between consecutive guide-sample
/// keys; final aggregation scans cells left to right (Delta < 2 w.h.p.).
Sample TwoPassOrderSample(const std::vector<WeightedKey>& items, double s,
                          const TwoPassConfig& cfg, Rng* rng);

/// Two-pass summarizer for disjoint ranges (Section 5): one cell per range
/// represented in the guide sample, plus one cell per maximal run of
/// unrepresented range ids between represented ones. Delta < 1 per range
/// w.h.p. range_of[i] is the range id of items[i], in [0, num_ranges).
Sample TwoPassDisjointSample(const std::vector<WeightedKey>& items,
                             const std::vector<int>& range_of,
                             int num_ranges, double s,
                             const TwoPassConfig& cfg, Rng* rng);

/// Two-pass summarizer for hierarchies (Section 5). items[k] must be the
/// key at hierarchy leaf leaf_of_key(k).
Sample TwoPassHierarchySample(const std::vector<WeightedKey>& items,
                              const Hierarchy& h, double s,
                              const TwoPassConfig& cfg,
                              HierarchyPartition variant, Rng* rng);

}  // namespace sas

#endif  // SAS_AWARE_TWO_PASS_H_
