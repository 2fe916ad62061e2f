// Dims-parameterized kd build core shared by the 2-D KdHierarchy, the
// general-d KdHierarchyNd (both thin wrappers over KdBuildCore) and the
// two-pass product partition (aware/two_pass.h, which flattens the core's
// SoA nodes into its locate table).
//
// The core owns the whole hot path of a weighted kd construction:
//
//  * the sort-once scheme with radix-ordered payload arrays — each axis is
//    LSD-radix-sorted (core/radix_sort.h) a single time up front over the
//    coordinate bytes that vary (ties in index order, exactly the
//    (coordinate, index) comparison order), and every axis carries its
//    items' coordinates and masses beside the order, so mass sums, prefix
//    scans and the median scan read sequentially. Every split maintains
//    all d (order, coord, mass) triples through branch-free stable
//    partitions keyed by a per-item side byte instead of re-sorting
//    subranges per node;
//  * round-robin axis choice with fallback to the next axis when all
//    coordinates coincide on the preferred one, splitting at the weighted
//    median (the coordinate boundary minimizing |left mass - right mass|);
//    each child receives its mass from the split (the left one is the
//    split's prefix, the right one is summed in the same order), the same
//    additions a fresh sum along the split axis would make;
//  * the SoA node accumulators (KdNodeSoA) and the explicit task stack,
//    all bump-allocated from the caller's KdBuildScratch arena. Siblings
//    get consecutive ids (right = left + 1) and children follow their
//    parent, so a reverse id scan is bottom-up.
//
// Points are flat: point i occupies coords[i*dims .. i*dims+dims). The 2-D
// wrapper routes its Point2D storage through a flat-coords facade (a
// static_assert-checked reinterpretation of the point array), so both
// public entry points run byte-for-byte the same build loop. A build
// records the `build.kd` telemetry span.

#ifndef SAS_AWARE_KD_BUILD_CORE_H_
#define SAS_AWARE_KD_BUILD_CORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aware/kd_scratch.h"
#include "core/types.h"

namespace sas {

/// Null child/parent sentinel of the core's SoA nodes; both public kd
/// classes pin their own kNull to this value.
inline constexpr std::int32_t kKdNull = -1;

/// One finished core build. The SoA arrays live in the scratch arena and
/// stay valid only until the scratch's next Reset (i.e. the next build);
/// callers copy them into their public node representation before reuse.
struct KdCoreBuild {
  KdNodeSoA soa;
  std::int32_t num_nodes = 0;
};

/// Builds the kd tree over n flat d-dimensional points with per-point mass
/// (IPPS probabilities or uniform 1s), filling `item_order` with the item
/// indices in kd DFS-leaf order. Exact duplicate points are kept together
/// in one leaf (emitted in index order). Requires n >= 1 and dims >= 1;
/// the scratch arena is Reset on entry, so one scratch serves one build at
/// a time and pointers from a previous build are invalidated.
KdCoreBuild KdBuildCore(const Coord* coords, int dims, const double* mass,
                        std::size_t n, KdBuildScratch* scratch,
                        std::vector<std::size_t>* item_order);

}  // namespace sas

#endif  // SAS_AWARE_KD_BUILD_CORE_H_
