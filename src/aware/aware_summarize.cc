#include "aware/aware_summarize.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/ipps.h"
#include "core/telemetry.h"

namespace sas {

namespace {

/// Builds the kd hierarchy over the open items (their probabilities as
/// mass) and emits it.
void EmitOpenKdTree(const AwareStructure& st, const std::vector<double>& probs,
                    SummarizeScratch* scratch) {
  const std::vector<std::size_t>& open = scratch->open;
  if (open.empty()) return;  // nothing to aggregate: no groups
  const auto ud = static_cast<std::size_t>(st.dims);
  auto& coords = scratch->coords;
  auto& mass = scratch->mass;
  coords.clear();
  mass.clear();
  coords.reserve(open.size() * ud);
  mass.reserve(open.size());
  for (std::size_t i : open) {
    if (st.coords != nullptr) {
      coords.insert(coords.end(), st.coords + i * ud, st.coords + i * ud + ud);
    } else {
      coords.push_back(st.items[i].pt.x);
      coords.push_back(st.items[i].pt.y);
    }
    mass.push_back(probs[i]);
  }
  const KdCoreBuild core = KdBuildCore(coords.data(), st.dims, mass.data(),
                                       open.size(), &scratch->kd,
                                       &scratch->order);
  EmitKdTree(core, scratch->order, open, &scratch->agg);
}

}  // namespace

void AwareSummarizeInto(const std::vector<Weight>& weights,
                        const AwareStructure& structure, double s, Rng* rng,
                        SummarizeScratch* scratch, SummarizeOutput* out) {
  static telemetry::Histogram* const solve_tau_ns =
      telemetry::GetHistogram("sas.build.solve_tau_ns");
  static telemetry::Histogram* const ipps_fill_ns =
      telemetry::GetHistogram("sas.build.ipps_fill_ns");
  static telemetry::Histogram* const aggregate_ns =
      telemetry::GetHistogram("sas.build.aggregate_ns");
  const std::size_t n = weights.size();
  {
    telemetry::Span span("build.solve_tau", solve_tau_ns);
    out->tau = SolveTau(weights, s, &scratch->ipps);
  }
  {
    telemetry::Span span("build.ipps_fill", ipps_fill_ns);
    IppsProbabilities(weights, out->tau, &out->probs);
    for (auto& q : out->probs) q = SnapProbability(q);
  }
  telemetry::Span span("build.aggregate", aggregate_ns);
  const std::vector<double>& probs = out->probs;
  // `open` and `chosen` are branch-free compactions: every index is
  // written, and the cursor advances only past the kept ones.
  auto& open = scratch->open;
  open.resize(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    open[kept] = i;
    kept += static_cast<std::size_t>((probs[i] != 0.0) & (probs[i] != 1.0));
  }
  open.resize(kept);

  AggregationTree& tree = scratch->agg;
  tree.Clear(n);
  switch (structure.kind) {
    case AwareStructure::Kind::kOrder: {
      auto& xs = scratch->coords;  // contiguous sort keys
      xs.clear();
      for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(structure.items[i].pt.x);
      }
      EmitOrderTree(xs.data(), open, &tree);
      break;
    }
    case AwareStructure::Kind::kDisjoint:
      EmitDisjointTree(structure.range_of, structure.num_ranges, open, &tree);
      break;
    case AwareStructure::Kind::kHierarchy: {
      const Hierarchy& h = *structure.hierarchy;
      assert(h.num_keys() == n);
      auto& node_entry = scratch->node_entry;
      node_entry.assign(static_cast<std::size_t>(h.num_nodes()), kNoEntry);
      for (int v = 0; v < h.num_nodes(); ++v) {
        if (h.is_leaf(v)) node_entry[v] = h.key_of_leaf(v);
      }
      EmitHierarchyTree(h, node_entry, &tree);
      break;
    }
    case AwareStructure::Kind::kKd:
      EmitOpenKdTree(structure, probs, scratch);
      break;
    case AwareStructure::Kind::kShuffled:
      EmitShuffledTree(n, rng, &tree);
      break;
  }

  auto& work = scratch->work;
  work.assign(probs.begin(), probs.end());
  TreeAggregate(tree, work.data(), rng, &scratch->agg_work);

  auto& chosen = out->chosen;
  chosen.resize(n);
  kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    chosen[kept] = static_cast<std::uint32_t>(i);
    kept += static_cast<std::size_t>(probs[i] == 1.0);
  }
  for (std::size_t i : open) {
    chosen[kept] = static_cast<std::uint32_t>(i);
    kept += static_cast<std::size_t>(work[i] == 1.0);
  }
  chosen.resize(kept);
}

void EmitOrderTree(const Coord* xs, const std::vector<std::size_t>& open,
                   AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  tree->members.assign(open.begin(), open.end());
  // Index tie-break == a stable sort of the ascending open indices, without
  // std::stable_sort's temporary buffer (warm rebuilds stay
  // allocation-free).
  std::sort(tree->members.begin(), tree->members.end(),
            [xs](std::size_t a, std::size_t b) {
              return xs[a] != xs[b] ? xs[a] < xs[b] : a < b;
            });
  tree->CloseGroup();
}

void EmitDisjointTree(const int* range_of, int num_ranges,
                      const std::vector<std::size_t>& open,
                      AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  // Counting sort of the open entries by range, stable over ascending
  // index: start[r + 2] counts range r, start[r + 1] is range r's begin
  // after the prefix sum and its end once the fill has advanced it.
  const auto ranges = static_cast<std::size_t>(num_ranges);
  auto& start = tree->start;
  start.assign(ranges + 2, 0);
  for (std::size_t i : open) {
    assert(range_of[i] >= 0 && range_of[i] < num_ranges);
    ++start[static_cast<std::size_t>(range_of[i]) + 2];
  }
  for (std::size_t r = 2; r < start.size(); ++r) start[r] += start[r - 1];
  tree->members.resize(open.size());
  for (std::size_t i : open) {
    tree->members[start[static_cast<std::size_t>(range_of[i]) + 1]++] = i;
  }
  start.pop_back();  // group r = members[start[r] .. start[r + 1])
  for (std::size_t r = 0; r < ranges; ++r) tree->Add(tree->num_entries + r);
  tree->CloseGroup();
}

void EmitHierarchyTree(const Hierarchy& h,
                       const std::vector<std::size_t>& entry_of_node,
                       AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  // Node u's group is number (num_nodes - 1 - u).
  const std::size_t last =
      tree->num_entries + static_cast<std::size_t>(h.num_nodes()) - 1;
  for (int v = h.num_nodes() - 1; v >= 0; --v) {
    if (entry_of_node[v] != kNoEntry) tree->Add(entry_of_node[v]);
    for (int c : h.children(v)) tree->Add(last - static_cast<std::size_t>(c));
    tree->CloseGroup();
  }
}

void EmitKdTree(const KdCoreBuild& core,
                const std::vector<std::size_t>& item_order,
                const std::vector<std::size_t>& entry_of_item,
                AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  const KdNodeSoA& soa = core.soa;
  const auto nodes = static_cast<std::size_t>(core.num_nodes);
  const std::size_t last = tree->num_entries + nodes - 1;
  // Every node but the root is one member of its parent's group; every
  // item is one member of its leaf's group.
  tree->start.reserve(nodes + 1);
  tree->members.reserve(nodes - 1 + item_order.size());
  for (std::int32_t v = core.num_nodes - 1; v >= 0; --v) {
    if (soa.left[v] == kKdNull) {
      for (std::uint32_t i = soa.begin[v]; i < soa.end[v]; ++i) {
        tree->Add(entry_of_item[item_order[i]]);
      }
    } else {
      tree->Add(last - static_cast<std::size_t>(soa.left[v]));
      tree->Add(last - static_cast<std::size_t>(soa.right[v]));
    }
    tree->CloseGroup();
  }
}

void EmitShuffledTree(std::size_t n, Rng* rng, AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  auto& order = tree->members;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBounded(i)]);
  }
  tree->CloseGroup();
}

void EmitKdTree(const KdHierarchy& kd, AggregationTree* tree) {
  assert(tree->num_groups() == 0);
  const auto nodes = static_cast<std::size_t>(kd.num_nodes());
  if (nodes == 0) return;  // empty build: no groups
  const std::size_t last = tree->num_entries + nodes - 1;
  tree->start.reserve(nodes + 1);
  tree->members.reserve(nodes - 1 + kd.item_order().size());
  for (int v = kd.num_nodes() - 1; v >= 0; --v) {
    const KdHierarchy::Node& node = kd.nodes()[static_cast<std::size_t>(v)];
    if (node.IsLeaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        tree->Add(kd.item_order()[i]);
      }
    } else {
      tree->Add(last - static_cast<std::size_t>(node.left));
      tree->Add(last - static_cast<std::size_t>(node.right));
    }
    tree->CloseGroup();
  }
}

void KdAggregate(std::vector<double>* probs, const KdHierarchy& kd,
                 Rng* rng, SummarizeScratch* scratch) {
  scratch->agg.Clear(probs->size());
  EmitKdTree(kd, &scratch->agg);
  TreeAggregate(scratch->agg, probs->data(), rng, &scratch->agg_work);
}

}  // namespace sas
