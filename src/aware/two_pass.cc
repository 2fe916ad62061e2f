#include "aware/two_pass.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "aware/aware_summarize.h"
#include "aware/kd_build_core.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/telemetry.h"
#include "sampling/stream_varopt.h"

namespace sas {

/// Pass 1 (all four constructions): the streaming IPPS threshold and the
/// structure-oblivious guide sample of size s' = factor * s.
struct TwoPassGuide {
  StreamTau tau_tracker;
  StreamVarOpt guide;

  TwoPassGuide(double s, const TwoPassConfig& cfg, Rng rng)
      : tau_tracker(s),
        guide(static_cast<std::size_t>(std::max(1.0, cfg.sprime_factor * s)),
              rng) {}

  void Push(const WeightedKey& item) {
    tau_tracker.Push(item.weight);
    guide.Push(item);
  }
};

namespace {

/// Items whose partition descents run in lockstep in Pass2Batch: enough
/// independent loads in flight to overlap the table's cache misses.
constexpr std::size_t kLocateLanes = 16;

/// Pass 1 over an in-memory input. Guide keys carry their input position
/// as id, so the partitions below index the positional structure by it
/// (StreamVarOpt never reads ids: the guide is otherwise unchanged).
TwoPassGuide RunPass1(const std::vector<WeightedKey>& items, double s,
                      const TwoPassConfig& cfg, Rng* rng) {
  TwoPassGuide p1(s, cfg, rng->Split());
  for (std::size_t i = 0; i < items.size(); ++i) {
    p1.Push({static_cast<KeyId>(i), items[i].weight, items[i].pt});
  }
  return p1;
}

/// IO-AGGREGATE (Algorithm 3) for one arriving key: a certain key joins the
/// sample, an open one is pair-aggregated with its cell's active key;
/// whichever becomes certain joins the sample, and the one left open (if
/// any) stays active.
void IoAggregate(const WeightedKey& item, double tau, TwoPassCell* cell,
                 std::vector<WeightedKey>* sample, Rng* rng) {
  if (item.weight <= 0.0) return;
  double p = SnapProbability(IppsProbability(item.weight, tau));
  if (p == 1.0) {
    sample->push_back(item);  // certain inclusion
    return;
  }
  if (p == 0.0) return;
  if (!cell->present) {
    *cell = {item, p, true};
    return;
  }
  PairAggregate(&p, &cell->p, rng);
  if (cell->p == 1.0) sample->push_back(cell->key);
  if (IsSet(cell->p)) cell->present = false;
  if (p == 1.0) sample->push_back(item);
  if (!IsSet(p)) {
    assert(!cell->present);
    *cell = {item, p, true};
  }
}

/// The final step of every construction: gathers the cells' active keys in
/// cell order, aggregates them along the partition's tree — emitted by
/// emit(entry_of_cell, &tree) over the gathered keys — and appends the
/// picks to the sample. Leaves every cell empty.
template <typename Emit>
void FinalAggregate(std::vector<TwoPassCell>* cells, Emit emit, Rng* rng,
                    std::vector<WeightedKey>* sample) {
  std::vector<WeightedKey> keys;
  std::vector<double> probs;
  std::vector<std::size_t> entry_of_cell(cells->size(), kNoEntry);
  for (std::size_t c = 0; c < cells->size(); ++c) {
    TwoPassCell& cell = (*cells)[c];
    if (!cell.present) continue;
    entry_of_cell[c] = keys.size();
    keys.push_back(cell.key);
    probs.push_back(cell.p);
    cell.present = false;
  }
  AggregationTree tree;
  tree.Clear(keys.size());
  emit(entry_of_cell, &tree);
  TreeAggregateScratch scratch;
  TreeAggregate(tree, probs.data(), rng, &scratch);
  for (std::size_t e = 0; e < keys.size(); ++e) {
    if (probs[e] == 1.0) sample->push_back(keys[e]);
  }
}

/// Order and disjoint cells: one chain over the active keys in cell order.
void EmitCellChain(const std::vector<std::size_t>& /*entry_of_cell*/,
                   AggregationTree* tree) {
  for (std::size_t e = 0; e < tree->num_entries; ++e) tree->Add(e);
  tree->CloseGroup();
}

}  // namespace

TwoPassProductSampler::TwoPassProductSampler(double s, TwoPassConfig cfg,
                                             Rng rng)
    : rng_(rng),
      pass1_(std::make_unique<TwoPassGuide>(s, cfg, rng_.Split())) {}

TwoPassProductSampler::~TwoPassProductSampler() = default;

void TwoPassProductSampler::RequirePhase(Phase want, const char* call) const {
  if (phase_ == want) return;
  throw std::logic_error(std::string("TwoPassProductSampler: ") + call +
                         (phase_ == Phase::kDone
                              ? " after Finalize (the sampler is spent)"
                              : " out of sequence (Pass1, BeginPass2, "
                                "Pass2, Finalize)"));
}

void TwoPassProductSampler::Pass1(const WeightedKey& item) {
  RequirePhase(Phase::kPass1, "Pass1");
  pass1_->Push(item);
}

void TwoPassProductSampler::BeginPass2() {
  static telemetry::Histogram* const partition_ns =
      telemetry::GetHistogram("sas.twopass.partition_ns");
  telemetry::Span span("twopass.partition", partition_ns);
  RequirePhase(Phase::kPass1, "BeginPass2");
  phase_ = Phase::kPass2;
  tau_ = pass1_->tau_tracker.tau();

  // Guide keys that would not be certain inclusions define the partition:
  // the kd-tree is built over their positions (flat x, y) with uniform
  // mass.
  const Sample guide = pass1_->guide.ToSample();
  std::vector<Coord> coords;
  for (const auto& k : guide.entries()) {
    if (IppsProbability(k.weight, tau_) < 1.0) {
      coords.push_back(k.pt.x);
      coords.push_back(k.pt.y);
    }
  }
  pass1_.reset();  // release pass-1 memory, as a streaming system would

  // Flatten the kd tree into the locate table: the core emits siblings as
  // consecutive ids (right = left + 1), so node ids carry over unchanged
  // and a leaf's `next` becomes its dense cell id. A degenerate (empty)
  // partition is one catch-all leaf, cell 0.
  const std::size_t n = coords.size() / 2;
  locate_.assign(1, LocateNode{});
  std::int32_t cells = 1;
  if (n > 0) {
    thread_local KdBuildScratch scratch;
    std::vector<std::size_t> item_order;
    const std::vector<double> ones(n, 1.0);
    const KdCoreBuild core = KdBuildCore(coords.data(), /*dims=*/2,
                                         ones.data(), n, &scratch,
                                         &item_order);
    const KdNodeSoA& soa = core.soa;
    locate_.resize(static_cast<std::size_t>(core.num_nodes));
    cells = 0;
    for (std::int32_t v = 0; v < core.num_nodes; ++v) {
      LocateNode& node = locate_[static_cast<std::size_t>(v)];
      if (soa.left[v] == kKdNull) {
        node = {0, cells++, -1};
      } else {
        assert(soa.right[v] == soa.left[v] + 1);
        node = {soa.split[v], soa.left[v], soa.axis[v]};
      }
    }
  }
  active_.assign(static_cast<std::size_t>(cells), {});
}

void TwoPassProductSampler::Pass2Batch(std::span<const WeightedKey> items) {
  static telemetry::Histogram* const pass2_ns =
      telemetry::GetHistogram("sas.twopass.pass2_ns");
  telemetry::Span span("twopass.pass2", pass2_ns);
  RunPass2(items);
}

void TwoPassProductSampler::Pass2(const WeightedKey& item) {
  RunPass2({&item, 1});
}

void TwoPassProductSampler::RunPass2(std::span<const WeightedKey> items) {
  RequirePhase(Phase::kPass2, "Pass2");
  const LocateNode* table = locate_.data();
  for (std::size_t base = 0; base < items.size(); base += kLocateLanes) {
    const std::size_t lanes = std::min(kLocateLanes, items.size() - base);
    const WeightedKey* chunk = items.data() + base;

    // Locate: every lane steps one level per round until all sit on a
    // leaf; the lanes' table loads are independent, so their misses
    // overlap. (Lanes whose item turns out certain or zero descend too;
    // the aggregation below ignores their cell.)
    std::int32_t node[kLocateLanes] = {};
    for (bool moved = true; moved;) {
      moved = false;
      for (std::size_t k = 0; k < lanes; ++k) {
        const LocateNode& nd = table[node[k]];
        if (nd.axis < 0) continue;
        const Coord c = nd.axis == 0 ? chunk[k].pt.x : chunk[k].pt.y;
        node[k] = nd.next + (c < nd.split ? 0 : 1);
        moved = true;
      }
    }

    // IO-AGGREGATE in input order.
    for (std::size_t k = 0; k < lanes; ++k) {
      const auto cell = static_cast<std::size_t>(table[node[k]].next);
      IoAggregate(chunk[k], tau_, &active_[cell], &sample_, &rng_);
    }
  }
}

Sample TwoPassProductSampler::Finalize() {
  static telemetry::Histogram* const final_ns =
      telemetry::GetHistogram("sas.twopass.final_ns");
  telemetry::Span span("twopass.final", final_ns);
  RequirePhase(Phase::kPass2, "Finalize");
  phase_ = Phase::kDone;
  // The partition *is* the hierarchy h of Section 5: the locate table
  // reversed (children have larger ids than their parent) is its
  // bottom-up aggregation tree.
  const std::vector<LocateNode>& table = locate_;
  FinalAggregate(
      &active_,
      [&table](const std::vector<std::size_t>& entry_of_cell,
               AggregationTree* tree) {
        const std::size_t last = tree->num_entries + table.size() - 1;
        tree->start.reserve(table.size() + 1);
        tree->members.reserve(2 * table.size());
        for (std::size_t v = table.size(); v-- > 0;) {
          const auto next = static_cast<std::size_t>(table[v].next);
          if (table[v].axis < 0) {
            if (entry_of_cell[next] != kNoEntry) tree->Add(entry_of_cell[next]);
          } else {
            tree->Add(last - next);
            tree->Add(last - (next + 1));
          }
          tree->CloseGroup();
        }
      },
      &rng_, &sample_);
  return Sample(tau_, std::move(sample_));
}

Sample TwoPassProductSample(const std::vector<WeightedKey>& items, double s,
                            const TwoPassConfig& cfg, Rng* rng) {
  TwoPassProductSampler sampler(s, cfg, rng->Split());
  for (const auto& it : items) sampler.Pass1(it);
  sampler.BeginPass2();
  sampler.Pass2Batch(items);
  return sampler.Finalize();
}

Sample TwoPassOrderSample(const std::vector<WeightedKey>& items, double s,
                          const TwoPassConfig& cfg, Rng* rng) {
  const TwoPassGuide p1 = RunPass1(items, s, cfg, rng);
  const double tau = p1.tau_tracker.tau();

  // Partition: boundaries at the guide keys (excluding certain inclusions),
  // sorted by coordinate; cell j = keys with x in (b_{j-1}, b_j].
  std::vector<Coord> bounds;
  const Sample guide = p1.guide.ToSample();
  for (const auto& k : guide.entries()) {
    if (IppsProbability(k.weight, tau) < 1.0) bounds.push_back(k.pt.x);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<TwoPassCell> active(bounds.size() + 1);
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();
  for (const auto& item : items) {
    const auto cell = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), item.pt.x) -
        bounds.begin());
    IoAggregate(item, tau, &active[cell], &sample, &local);
  }
  // Final aggregation: a left-to-right fold over the cells (the main-memory
  // order aggregation applied to the active keys).
  FinalAggregate(&active, EmitCellChain, &local, &sample);
  return Sample(tau, std::move(sample));
}

Sample TwoPassDisjointSample(const std::vector<WeightedKey>& items,
                             const std::vector<int>& range_of,
                             int num_ranges, double s,
                             const TwoPassConfig& cfg, Rng* rng) {
  assert(items.size() == range_of.size());
  const TwoPassGuide p1 = RunPass1(items, s, cfg, rng);
  const double tau = p1.tau_tracker.tau();

  // Partition: a dedicated cell per range represented in the guide sample,
  // plus one cell per maximal run of unrepresented range ids (these runs
  // carry < 1 probability mass w.h.p.).
  std::vector<char> represented(num_ranges, 0);
  const Sample guide = p1.guide.ToSample();
  for (const auto& k : guide.entries()) {
    if (IppsProbability(k.weight, tau) < 1.0) {
      represented[range_of[k.id]] = 1;  // guide ids are input positions
    }
  }
  std::vector<int> cell_of_range(num_ranges, -1);
  int cells = 0;
  int current_gap_cell = -1;
  for (int r = 0; r < num_ranges; ++r) {
    if (represented[r]) {
      cell_of_range[r] = cells++;
      current_gap_cell = -1;
    } else {
      if (current_gap_cell < 0) current_gap_cell = cells++;
      cell_of_range[r] = current_gap_cell;
    }
  }

  std::vector<TwoPassCell> active(std::max(cells, 1));
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int cell = std::max(0, cell_of_range[range_of[i]]);
    IoAggregate(items[i], tau, &active[cell], &sample, &local);
  }
  // Final aggregation: across-cell order is arbitrary for disjoint ranges.
  FinalAggregate(&active, EmitCellChain, &local, &sample);
  return Sample(tau, std::move(sample));
}

Sample TwoPassHierarchySample(const std::vector<WeightedKey>& items,
                              const Hierarchy& h, double s,
                              const TwoPassConfig& cfg,
                              HierarchyTwoPassVariant variant, Rng* rng) {
  assert(items.size() == h.num_keys());
  if (variant == HierarchyTwoPassVariant::kLinearize) {
    // Totally order the keys by DFS rank and run the order variant; node
    // ranges are rank intervals, so Delta < 2 w.h.p. carries over.
    std::vector<WeightedKey> relabeled = items;
    for (std::size_t k = 0; k < relabeled.size(); ++k) {
      relabeled[k].pt.x = h.rank_of_key(static_cast<KeyId>(k));
    }
    return TwoPassOrderSample(relabeled, s, cfg, rng);
  }

  // Ancestor variant: select every ancestor of every guide key; each key's
  // cell is its lowest selected ancestor. Works best for shallow
  // hierarchies (the paper's caveat) but gives Delta < 1 w.h.p.
  const TwoPassGuide p1 = RunPass1(items, s, cfg, rng);
  const double tau = p1.tau_tracker.tau();

  std::vector<char> selected(h.num_nodes(), 0);
  const Sample guide = p1.guide.ToSample();
  for (const auto& k : guide.entries()) {
    if (IppsProbability(k.weight, tau) >= 1.0) continue;
    for (int v = h.leaf_of_key(k.id); v != Hierarchy::kNoParent;
         v = h.parent(v)) {
      if (selected[v]) break;  // ancestors above are already selected
      selected[v] = 1;
    }
  }
  selected[h.root()] = 1;  // catch-all for keys outside all guide subtrees

  // Pass 2: a key's cell is its lowest selected ancestor; cells are named
  // by node id (unselected nodes never hold a key).
  std::vector<TwoPassCell> active(h.num_nodes());
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();
  for (std::size_t k = 0; k < items.size(); ++k) {
    int v = h.leaf_of_key(static_cast<KeyId>(k));
    while (!selected[v]) v = h.parent(v);
    IoAggregate(items[k], tau, &active[v], &sample, &local);
  }

  // Final aggregation follows the hierarchy: bottom-up, each node chains
  // its own cell's active key with the leftovers of its children.
  FinalAggregate(
      &active,
      [&h](const std::vector<std::size_t>& entry_of_node,
           AggregationTree* tree) {
        EmitHierarchyTree(h, entry_of_node, tree);
      },
      &local, &sample);
  return Sample(tau, std::move(sample));
}

}  // namespace sas
