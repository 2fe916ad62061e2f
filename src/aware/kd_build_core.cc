#include "aware/kd_build_core.h"

#include <algorithm>
#include <cassert>

#include "core/radix_sort.h"
#include "core/simd.h"
#include "core/telemetry.h"

namespace sas {

namespace {

struct BuildTask {
  std::int32_t node;
  std::uint32_t begin, end;
  std::int32_t depth;
};

static_assert(kKdNull == -1,
              "KdNodeSoA::Emplace hardcodes -1 as the null child/parent");

}  // namespace

KdCoreBuild KdBuildCore(const Coord* coords, int dims, const double* mass,
                        std::size_t n, KdBuildScratch* scratch,
                        std::vector<std::size_t>* item_order) {
  static telemetry::Histogram* const build_ns =
      telemetry::GetHistogram("sas.build.kd_ns");
  telemetry::Span span("build.kd", build_ns);
  assert(dims >= 1);
  assert(n >= 1);
  MonotonicArena& arena = scratch->arena;
  arena.Reset();
  const auto ud = static_cast<std::size_t>(dims);

  // Per axis, the item order plus the payload the build reads along it:
  // each item's axis coordinate and mass, carried beside the order so the
  // mass sums, prefix scans and median scans read sequentially. Every split
  // keeps all d (order, coord, mass) triples sorted by a stable partition
  // instead of re-sorting the subrange per node.
  std::uint32_t** ord = arena.AllocateArray<std::uint32_t*>(ud);
  Coord** key = arena.AllocateArray<Coord*>(ud);
  double** wt = arena.AllocateArray<double*>(ud);
  // The partition buffer (also the radix sort's ping-pong buffer), the
  // weighted prefix of the node being split (whose storage doubles as the
  // partition's mass buffer: a node's prefix is dead once its children's
  // masses are taken), and the per-item side of the current split.
  std::uint32_t* tmp_ord = arena.AllocateArray<std::uint32_t>(n);
  Coord* tmp_key = arena.AllocateArray<Coord>(n);
  double* pref = arena.AllocateArray<double>(n);
  double* tmp_wt = pref;
  std::uint8_t* is_left = arena.AllocateArray<std::uint8_t>(n);
  for (std::size_t a = 0; a < ud; ++a) {
    ord[a] = arena.AllocateArray<std::uint32_t>(n);
    key[a] = arena.AllocateArray<Coord>(n);
    wt[a] = arena.AllocateArray<double>(n);
    RadixSortAxis(coords, ud, a, n, ord[a], key[a], tmp_ord, tmp_key);
    for (std::size_t i = 0; i < n; ++i) wt[a][i] = mass[ord[a][i]];
  }

  const std::size_t node_cap = 2 * n;  // at most 2n - 1 nodes
  KdCoreBuild out;
  out.soa.Init(&arena, node_cap);
  KdNodeSoA& soa = out.soa;
  // DFS with left child processed first: outstanding tasks cover disjoint
  // item ranges, so the stack holds at most n of them.
  BuildTask* stack = arena.AllocateArray<BuildTask>(n + 1);
  std::size_t stack_size = 0;

  item_order->resize(n);
  std::int32_t num_nodes = 1;
  soa.Emplace(0, kKdNull);
  // The root sums its mass in input order; every child receives its mass
  // from the parent's split, summed along the split axis' order.
  double root_mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) root_mass += mass[i];
  soa.mass[0] = root_mass;
  stack[stack_size++] = {0, 0, static_cast<std::uint32_t>(n), 0};
  while (stack_size > 0) {
    const BuildTask t = stack[--stack_size];
    soa.begin[t.node] = t.begin;
    soa.end[t.node] = t.end;
    const double total = soa.mass[t.node];
    if (t.end - t.begin <= 1) {
      if (t.end > t.begin) (*item_order)[t.begin] = ord[0][t.begin];
      continue;  // leaf
    }

    // Choose the split axis round-robin; fall back to the next axis when
    // all coordinates coincide on the preferred one. Weighted median: the
    // coordinate boundary minimizing |left mass - right mass|; only
    // boundaries between distinct coordinates are valid split positions.
    const std::uint32_t len = t.end - t.begin;
    int axis = t.depth % dims;
    int used_axis = axis;
    bool split_found = false;
    std::uint32_t split_pos = t.begin;
    Coord split_val = 0;
    double left_mass = 0.0;
    for (int attempt = 0; attempt < dims && !split_found;
         ++attempt, axis = (axis + 1) % dims) {
      const Coord* k = key[axis] + t.begin;
      if (k[0] == k[len - 1]) continue;  // degenerate on this axis
      // The prefix sum's addition order is part of the bit-identity
      // contract (serial by construction); the dispatched min-gap scan then
      // picks the first boundary minimizing |left - right| mass.
      const double* w = wt[axis] + t.begin;
      double run = 0.0;
      for (std::uint32_t i = 0; i < len; ++i) {
        run += w[i];
        pref[i] = run;
      }
      const std::size_t pos = simd::MinGapScan(pref, k, len, total);
      if (pos != simd::kNoSplit) {
        split_pos = t.begin + static_cast<std::uint32_t>(pos) + 1;
        split_val = k[pos + 1];
        left_mass = pref[pos];
      }
      split_found = pos != simd::kNoSplit;
      used_axis = axis;
    }
    if (!split_found) {
      // All points identical: keep them together as one leaf, emitted in
      // the order of the last attempted axis (ties are index-ordered, so
      // any axis agrees).
      const std::uint32_t* o = ord[(t.depth + dims - 1) % dims];
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        (*item_order)[i] = o[i];
      }
      continue;
    }
    // The left mass is the prefix at the split (the same additions a fresh
    // sum over the left range makes); the right mass is summed in the same
    // order over the right range.
    double right_mass = 0.0;
    const double* wu = wt[used_axis];
    for (std::uint32_t i = split_pos; i < t.end; ++i) right_mass += wu[i];

    // The used axis' arrays are already partitioned by position; stable-
    // partition every other axis' arrays by each item's side of the split
    // (branch-free: every element is written to both candidate slots and
    // only the matching cursor advances) so both children again see all
    // axes sorted.
    if (dims > 1) {
      const std::uint32_t* ou = ord[used_axis];
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        is_left[ou[i]] = i < split_pos ? 1 : 0;
      }
    }
    for (std::size_t a = 0; a < ud; ++a) {
      if (static_cast<int>(a) == used_axis) continue;
      std::uint32_t* o = ord[a];
      Coord* k = key[a];
      double* w = wt[a];
      std::uint32_t nl = t.begin, nr = 0;
      for (std::uint32_t i = t.begin; i < t.end; ++i) {
        const std::uint32_t item = o[i];
        const Coord c = k[i];
        const double m = w[i];
        const std::uint32_t goes_left = is_left[item];
        o[nl] = item;  // nl <= i: slot i is already read
        k[nl] = c;
        w[nl] = m;
        tmp_ord[nr] = item;
        tmp_key[nr] = c;
        tmp_wt[nr] = m;
        nl += goes_left;
        nr += 1 - goes_left;
      }
      assert(nl == split_pos);
      std::copy(tmp_ord, tmp_ord + nr, o + nl);
      std::copy(tmp_key, tmp_key + nr, k + nl);
      std::copy(tmp_wt, tmp_wt + nr, w + nl);
    }

    const std::int32_t left = num_nodes++;
    const std::int32_t right = num_nodes++;
    soa.Emplace(left, t.node);
    soa.Emplace(right, t.node);
    soa.mass[left] = left_mass;
    soa.mass[right] = right_mass;
    soa.axis[t.node] = used_axis;
    soa.split[t.node] = split_val;
    soa.left[t.node] = left;
    soa.right[t.node] = right;
    stack[stack_size++] = {right, split_pos, t.end, t.depth + 1};
    stack[stack_size++] = {left, t.begin, split_pos, t.depth + 1};
  }

  assert(static_cast<std::size_t>(num_nodes) < node_cap);
  out.num_nodes = num_nodes;
  return out;
}

}  // namespace sas
