// BoxIndex: the library's one accelerated box-query path over a finalized
// Sample. Every SampleSummary builds one at construction, and every
// ServingSnapshot carries one; the linear Sample scans remain only as the
// reference the index is tested against.
//
// Layout: three arrays in (x, position) order — x coordinates, y
// coordinates and entry positions, 20 bytes per entry. The index keeps no
// weights and no pointer to the sample; queries take the Sample it was
// built from as an argument.
//
// Query: per rectangle, binary-search the x range, run a branch-free y
// test over the contiguous y slice, and OR each hit into a caller-owned
// PositionBitmap. Summing the marked positions in ascending order then
// makes exactly the additions, in exactly the order, of
// Sample::EstimateQuery — the result is bit-identical, and an entry inside
// several (overlapping) rectangles is counted once, as the linear scan
// counts it.
//
// Thread-safety: the index is immutable after construction; any number of
// threads may query it concurrently, each with its own bitmap.

#ifndef SAS_CORE_BOX_INDEX_H_
#define SAS_CORE_BOX_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sample.h"
#include "core/types.h"

namespace sas {

/// A set of entry positions, one bit per entry. Between queries every bit
/// is clear: a query marks positions, then SumAndClear consumes them.
/// Caller-owned and reused across queries, so steady-state queries
/// allocate nothing.
class PositionBitmap {
 public:
  /// Makes room for positions [0, n). Grows only; new words are clear.
  void Reserve(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  /// Marks position p when `hit` (branch-free). p must be below the size
  /// last passed to Reserve.
  void MarkIf(std::uint32_t p, bool hit) {
    words_[p >> 6] |= std::uint64_t{hit} << (p & 63);
  }

  /// Sums sample.AdjustedWeight over the marked entries of `sample` in
  /// ascending position order — the linear scan's additions in the linear
  /// scan's order — and clears the marks.
  Weight SumAndClear(const Sample& sample);

 private:
  std::vector<std::uint64_t> words_;
};

class BoxIndex {
 public:
  /// An empty index (the state of a summary whose sample was taken).
  BoxIndex() = default;

  /// Sorts the entries of `sample` by (x, position) with the library's
  /// radix sort. Records the `query.index_build` span.
  explicit BoxIndex(const Sample& sample);

  std::size_t size() const { return pos_.size(); }

  /// HT estimate of the entries inside any of `boxes`; bit-identical to
  /// Sample::EstimateQuery over the same rectangles. `sample` must be the
  /// sample the index was built from.
  Weight Estimate(const Sample& sample, std::span<const Box> boxes,
                  PositionBitmap* bitmap) const;

  /// Number of entries inside the box (Sample::CountInBox).
  std::size_t CountInBox(const Box& box) const;

 private:
  /// The index range [*begin, *end) whose x lies in box.x.
  void XRange(const Box& box, std::size_t* begin, std::size_t* end) const;

  std::vector<Coord> xs_;
  std::vector<Coord> ys_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace sas

#endif  // SAS_CORE_BOX_INDEX_H_
