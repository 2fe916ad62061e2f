// The library's one coordinate sort: a stable LSD radix sort of item
// indices by one axis of flat coordinates. Both sorted structures of the
// library run on it — the kd build core (aware/kd_build_core.h) sorts each
// axis once per build, and the box-query index (core/box_index.h) sorts
// the sample entries by x once per summary.

#ifndef SAS_CORE_RADIX_SORT_H_
#define SAS_CORE_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>

#include "core/types.h"

namespace sas {

/// Sorts axis `axis` of the n flat points (point i's coordinate on the
/// axis is coords[i * dims + axis]) into (ord, key): item indices and their
/// axis coordinates in ascending (coordinate, index) order. LSD radix sort
/// over the bytes in which some coordinate differs from the first one (a
/// byte all keys share would be an identity pass); starting from index
/// order, every pass is stable, so ties come out index-ordered exactly as
/// the (coordinate, index) comparison sort orders them. (tmp_ord, tmp_key)
/// is the ping-pong buffer; all four output arrays hold n elements and
/// must not overlap `coords`. Requires n >= 1.
void RadixSortAxis(const Coord* coords, std::size_t dims, std::size_t axis,
                   std::size_t n, std::uint32_t* ord, Coord* key,
                   std::uint32_t* tmp_ord, Coord* tmp_key);

}  // namespace sas

#endif  // SAS_CORE_RADIX_SORT_H_
