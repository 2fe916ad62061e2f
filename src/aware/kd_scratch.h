// Shared build workspace for the kd constructions (2-D KdHierarchy and the
// general-d KdHierarchyNd).
//
// One monotonic arena backs everything a build needs — per-axis item
// orders with their coordinate and mass payloads, the partition (and radix
// ping-pong) buffer, the task stack, and the SoA node accumulators — so
// repeated builds against a warm scratch perform zero
// heap allocations beyond the returned tree itself. See core/arena.h for
// the ownership rules; builds Reset() the arena on entry, so one scratch
// serves at most one build at a time.

#ifndef SAS_AWARE_KD_SCRATCH_H_
#define SAS_AWARE_KD_SCRATCH_H_

#include <cstddef>
#include <cstdint>

#include "core/arena.h"
#include "core/types.h"

namespace sas {

struct KdBuildScratch {
  MonotonicArena arena;
};

/// Arena-backed SoA node accumulators shared by the kd builds: field writes
/// stream into flat arrays during construction and the public AoS node
/// vector is emitted in one pass at the end. The N-d build has no parent
/// field in its public nodes and simply never reads `parent`.
struct KdNodeSoA {
  std::int32_t* parent;
  std::int32_t* left;
  std::int32_t* right;
  std::int32_t* axis;
  Coord* split;
  double* mass;
  std::uint32_t* begin;
  std::uint32_t* end;

  void Init(MonotonicArena* arena, std::size_t cap) {
    parent = arena->AllocateArray<std::int32_t>(cap);
    left = arena->AllocateArray<std::int32_t>(cap);
    right = arena->AllocateArray<std::int32_t>(cap);
    axis = arena->AllocateArray<std::int32_t>(cap);
    split = arena->AllocateArray<Coord>(cap);
    mass = arena->AllocateArray<double>(cap);
    begin = arena->AllocateArray<std::uint32_t>(cap);
    end = arena->AllocateArray<std::uint32_t>(cap);
  }

  /// New node with leaf defaults (children/parent null = -1, axis 0),
  /// matching the public Node member initializers of both kd classes.
  void Emplace(std::int32_t id, std::int32_t parent_id) {
    parent[id] = parent_id;
    left[id] = -1;
    right[id] = -1;
    axis[id] = 0;
    split[id] = 0;
  }
};

}  // namespace sas

#endif  // SAS_AWARE_KD_SCRATCH_H_
