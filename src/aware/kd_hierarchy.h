// KD-HIERARCHY (Algorithm 2): a kd-tree over weighted d-dimensional keys,
// the hierarchy of the product-structure summarizer (Section 4, any d) and
// the space partition of the two-pass algorithm (Section 5).
//
// Axes are split round-robin; the split point on the current axis is the
// weighted median (the position minimizing |left mass - right mass|). For
// hierarchy axes the datasets lay leaf coordinates out in DFS order, so the
// coordinate median is a split over the hierarchy's canonical linearization
// (see DESIGN.md, substitution 3). The paper's general-d construction has
// box discrepancy O(min{p(R), 2d s^((d-1)/d)}) concentrated around
// s^((d-1)/(2d)).

#ifndef SAS_AWARE_KD_HIERARCHY_H_
#define SAS_AWARE_KD_HIERARCHY_H_

#include <cstddef>
#include <vector>

#include "aware/kd_scratch.h"
#include "core/types.h"

namespace sas {

class KdHierarchy {
 public:
  static constexpr int kNull = -1;

  struct Node {
    int parent = kNull;
    int left = kNull;
    int right = kNull;
    int axis = 0;       // split axis in [0, dims) (2-D: 0 = x, 1 = y)
    Coord split = 0;    // points with axis-coord < split go left
    double mass = 0.0;  // total mass under this node
    // Leaves hold a contiguous run [begin, end) of item_order() (a single
    // item unless the build hit duplicate points).
    std::size_t begin = 0;
    std::size_t end = 0;

    bool IsLeaf() const { return left == kNull; }
  };

  /// Builds the tree over 2-D points with per-point mass (IPPS
  /// probabilities or uniform 1s). Points should be distinct; exact
  /// duplicates are kept together in one leaf.
  ///
  /// The build is a thin wrapper over the shared dims-parameterized
  /// KdBuildCore (aware/kd_build_core.h) with dims = 2, the Point2D array
  /// routed through its flat-coords facade: each axis is radix-sorted once
  /// up front into an order with its coordinate and mass payloads, and all
  /// axes are maintained through stable partitions, so the per-level work
  /// is linear and reads sequentially (the classic per-node re-sort made
  /// it O(n log^2 n)). All working memory — axis orders and payloads,
  /// partition buffer, task stack, and the SoA node accumulators — comes
  /// from the scratch arena; builds against a warm scratch allocate only
  /// the returned tree. The overload without a scratch uses an internal
  /// thread-local workspace.
  static KdHierarchy Build(const std::vector<Point2D>& pts,
                           const std::vector<double>& mass);
  static KdHierarchy Build(const std::vector<Point2D>& pts,
                           const std::vector<double>& mass,
                           KdBuildScratch* scratch);

  /// Rebuilds *out in place, reusing its node and item-order storage in
  /// addition to the scratch arena: a warm (scratch, out) pair makes the
  /// whole build allocation-free. Produces exactly the tree Build returns.
  /// The flat overload builds over n = coords.size() / dims points (point
  /// i occupies coords[i*dims .. i*dims+dims)) with the same core, any
  /// d >= 1.
  static void BuildInto(const std::vector<Point2D>& pts,
                        const std::vector<double>& mass,
                        KdBuildScratch* scratch, KdHierarchy* out);
  static void BuildInto(const std::vector<Coord>& coords, int dims,
                        const std::vector<double>& mass,
                        KdBuildScratch* scratch, KdHierarchy* out);

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return nodes_.empty() ? kNull : 0; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int dims() const { return dims_; }

  /// Item indices (into the build vectors) in kd DFS-leaf order.
  const std::vector<std::size_t>& item_order() const { return item_order_; }

  /// Descends by split coordinates to the leaf region containing pt (2-D
  /// trees only). Works for arbitrary points, not only build points.
  /// Returns kNull on an empty tree. (The two-pass sampler does not use
  /// this per-node descent: it locates through its own compact table; see
  /// aware/two_pass.h.)
  int LocateLeaf(const Point2D& pt) const;

  /// Minimal-depth nodes with mass <= limit ("s-leaves" of Appendix E).
  std::vector<int> SuperLeaves(double limit) const;

  /// Maximum leaf depth (root = 0).
  int MaxDepth() const;

 private:
  static void BuildFlat(const Coord* coords, int dims, const double* mass,
                        std::size_t n, KdBuildScratch* scratch,
                        KdHierarchy* out);

  int dims_ = 2;
  std::vector<Node> nodes_;
  std::vector<std::size_t> item_order_;
};

}  // namespace sas

#endif  // SAS_AWARE_KD_HIERARCHY_H_
