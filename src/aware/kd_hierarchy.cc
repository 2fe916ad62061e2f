#include "aware/kd_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "aware/flat_coords.h"
#include "aware/kd_build_core.h"

namespace sas {

namespace {

inline Coord AxisCoord(const Point2D& p, int axis) {
  return axis == 0 ? p.x : p.y;
}

static_assert(KdHierarchy::kNull == kKdNull,
              "KdHierarchy::kNull must match the core's sentinel");

}  // namespace

KdHierarchy KdHierarchy::Build(const std::vector<Point2D>& pts,
                               const std::vector<double>& mass) {
  thread_local KdBuildScratch scratch;
  return Build(pts, mass, &scratch);
}

KdHierarchy KdHierarchy::Build(const std::vector<Point2D>& pts,
                               const std::vector<double>& mass,
                               KdBuildScratch* scratch) {
  KdHierarchy tree;
  BuildInto(pts, mass, scratch, &tree);
  return tree;
}

void KdHierarchy::BuildInto(const std::vector<Point2D>& pts,
                            const std::vector<double>& mass,
                            KdBuildScratch* scratch, KdHierarchy* out) {
  assert(pts.size() == mass.size());
  BuildFlat(AsFlatCoords(pts.data()), /*dims=*/2, mass.data(), pts.size(),
            scratch, out);
}

void KdHierarchy::BuildInto(const std::vector<Coord>& coords, int dims,
                            const std::vector<double>& mass,
                            KdBuildScratch* scratch, KdHierarchy* out) {
  assert(dims >= 1);
  assert(coords.size() == mass.size() * static_cast<std::size_t>(dims));
  BuildFlat(coords.data(), dims, mass.data(), mass.size(), scratch, out);
}

void KdHierarchy::BuildFlat(const Coord* coords, int dims, const double* mass,
                            std::size_t n, KdBuildScratch* scratch,
                            KdHierarchy* out) {
  out->dims_ = dims;
  if (n == 0) {
    out->nodes_.clear();
    out->item_order_.clear();
    return;
  }

  const KdCoreBuild core =
      KdBuildCore(coords, dims, mass, n, scratch, &out->item_order_);

  out->nodes_.resize(static_cast<std::size_t>(core.num_nodes));
  for (std::int32_t v = 0; v < core.num_nodes; ++v) {
    Node& nd = out->nodes_[static_cast<std::size_t>(v)];
    nd.parent = core.soa.parent[v];
    nd.left = core.soa.left[v];
    nd.right = core.soa.right[v];
    nd.axis = core.soa.axis[v];
    nd.split = core.soa.split[v];
    nd.mass = core.soa.mass[v];
    nd.begin = core.soa.begin[v];
    nd.end = core.soa.end[v];
  }
}

int KdHierarchy::LocateLeaf(const Point2D& pt) const {
  assert(dims_ == 2);
  if (nodes_.empty()) return kNull;
  int v = 0;
  while (!nodes_[v].IsLeaf()) {
    const Coord c = AxisCoord(pt, nodes_[v].axis);
    v = c < nodes_[v].split ? nodes_[v].left : nodes_[v].right;
  }
  return v;
}

std::vector<int> KdHierarchy::SuperLeaves(double limit) const {
  std::vector<int> out;
  if (nodes_.empty()) return out;
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (nodes_[v].mass <= limit || nodes_[v].IsLeaf()) {
      out.push_back(v);
      continue;
    }
    stack.push_back(nodes_[v].right);
    stack.push_back(nodes_[v].left);
  }
  return out;
}

int KdHierarchy::MaxDepth() const {
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  int best = 0;
  while (!stack.empty()) {
    const auto [v, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    if (!nodes_[v].IsLeaf()) {
      stack.push_back({nodes_[v].left, d + 1});
      stack.push_back({nodes_[v].right, d + 1});
    }
  }
  return best;
}

}  // namespace sas
