#include "aware/two_pass.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "aware/kd_build_core.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/telemetry.h"
#include "sampling/stream_varopt.h"
#include "structure/order.h"

namespace sas {

struct TwoPassProductSampler::Pass1State {
  StreamTau tau_tracker;
  StreamVarOpt guide;

  Pass1State(double s, std::size_t sprime, Rng rng)
      : tau_tracker(s), guide(sprime, rng) {}
};

namespace {

/// Items whose partition descents run in lockstep in Pass2Batch: enough
/// independent loads in flight to overlap the table's cache misses.
constexpr std::size_t kLocateLanes = 16;

}  // namespace

TwoPassProductSampler::TwoPassProductSampler(double s, TwoPassConfig cfg,
                                             Rng rng)
    : s_(s), cfg_(cfg), rng_(rng) {
  const auto sprime = static_cast<std::size_t>(
      std::max(1.0, cfg_.sprime_factor * s_));
  pass1_ = std::make_unique<Pass1State>(s_, sprime, rng_.Split());
}

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
  pass1_->tau_tracker.Push(item.weight);
  pass1_->guide.Push(item);
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

    // IO-AGGREGATE (Algorithm 3) in input order: aggregate each arriving
    // key with its cell's active key; whichever becomes certain joins the
    // sample, and the one left open (if any) stays active.
    for (std::size_t k = 0; k < lanes; ++k) {
      const WeightedKey& item = chunk[k];
      if (item.weight <= 0.0) continue;
      double p = SnapProbability(IppsProbability(item.weight, tau_));
      if (p == 1.0) {
        sample_.push_back(item);  // certain inclusion
        continue;
      }
      if (p == 0.0) continue;
      ActiveKey& a = active_[static_cast<std::size_t>(table[node[k]].next)];
      if (!a.present) {
        a.key = item;
        a.p = p;
        a.present = true;
        continue;
      }
      PairAggregate(&p, &a.p, &rng_);
      if (a.p == 1.0) sample_.push_back(a.key);
      if (IsSet(a.p)) a.present = false;
      if (p == 1.0) sample_.push_back(item);
      if (!IsSet(p)) {
        assert(!a.present);
        a.key = item;
        a.p = p;
        a.present = true;
      }
    }
  }
}

Sample TwoPassProductSampler::Finalize() {
  static telemetry::Histogram* const final_ns =
      telemetry::GetHistogram("sas.twopass.final_ns");
  telemetry::Span span("twopass.final", final_ns);
  RequirePhase(Phase::kPass2, "Finalize");
  phase_ = Phase::kDone;
  // Gather the active keys and aggregate them bottom-up along the locate
  // table (the partition *is* the hierarchy h of Section 5; children have
  // larger ids than their parent, so a reverse scan is bottom-up).
  std::vector<WeightedKey> akeys;
  std::vector<double> aprobs;
  std::vector<std::size_t> entry_of_cell(active_.size(), kNoEntry);
  for (std::size_t c = 0; c < active_.size(); ++c) {
    if (active_[c].present) {
      entry_of_cell[c] = akeys.size();
      akeys.push_back(active_[c].key);
      aprobs.push_back(active_[c].p);
    }
  }
  RngStream draws(&rng_);
  std::vector<std::size_t> leftover(locate_.size(), kNoEntry);
  std::vector<std::size_t> entries;
  for (std::size_t v = locate_.size(); v-- > 0;) {
    const LocateNode& node = locate_[v];
    const auto next = static_cast<std::size_t>(node.next);
    entries.clear();
    if (node.axis < 0) {
      const std::size_t e = entry_of_cell[next];
      if (e != kNoEntry && !IsSet(aprobs[e])) entries.push_back(e);
    } else {
      if (leftover[next] != kNoEntry) entries.push_back(leftover[next]);
      if (leftover[next + 1] != kNoEntry) {
        entries.push_back(leftover[next + 1]);
      }
    }
    leftover[v] = ChainAggregateRange(aprobs.data(), entries.data(),
                                      entries.size(), kNoEntry, &draws);
  }
  ResolveResidual(aprobs.data(), leftover[0], &draws);
  draws.Flush();
  for (std::size_t e = 0; e < akeys.size(); ++e) {
    if (aprobs[e] == 1.0) sample_.push_back(akeys[e]);
  }
  for (auto& slot : active_) slot.present = false;
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
  // Pass 1: threshold + guide sample.
  const auto sprime =
      static_cast<std::size_t>(std::max(1.0, cfg.sprime_factor * s));
  StreamTau tau_tracker(s);
  StreamVarOpt guide(sprime, rng->Split());
  for (const auto& it : items) {
    tau_tracker.Push(it.weight);
    guide.Push(it);
  }
  const double tau = tau_tracker.tau();

  // Partition: boundaries at the guide keys (excluding certain inclusions),
  // sorted by coordinate; cell j = keys with x in (b_{j-1}, b_j].
  std::vector<Coord> bounds;
  const Sample guide_sample = guide.ToSample();
  for (const auto& k : guide_sample.entries()) {
    if (IppsProbability(k.weight, tau) < 1.0) bounds.push_back(k.pt.x);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::size_t cells = bounds.size() + 1;

  struct ActiveKey {
    WeightedKey key;
    double p = 0.0;
    bool present = false;
  };
  std::vector<ActiveKey> active(cells);
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();

  // Pass 2: IO-AGGREGATE per cell.
  for (const auto& item : items) {
    if (item.weight <= 0.0) continue;
    double p = SnapProbability(IppsProbability(item.weight, tau));
    if (p == 1.0) {
      sample.push_back(item);
      continue;
    }
    if (p == 0.0) continue;
    const std::size_t cell =
        std::lower_bound(bounds.begin(), bounds.end(), item.pt.x) -
        bounds.begin();
    ActiveKey& a = active[cell];
    if (!a.present) {
      a.key = item;
      a.p = p;
      a.present = true;
      continue;
    }
    PairAggregate(&p, &a.p, &local);
    if (a.p == 1.0) sample.push_back(a.key);
    if (IsSet(a.p)) a.present = false;
    if (p == 1.0) sample.push_back(item);
    if (!IsSet(p)) {
      a.key = item;
      a.p = p;
      a.present = true;
    }
  }

  // Final aggregation: left-to-right fold over cells (the main-memory order
  // aggregation applied to the active keys).
  std::vector<WeightedKey> akeys;
  std::vector<double> aprobs;
  for (const auto& slot : active) {
    if (slot.present) {
      akeys.push_back(slot.key);
      aprobs.push_back(slot.p);
    }
  }
  std::vector<std::size_t> order(akeys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  {
    RngStream draws(&local);
    const std::size_t leftover = ChainAggregateRange(
        aprobs.data(), order.data(), order.size(), kNoEntry, &draws);
    ResolveResidual(aprobs.data(), leftover, &draws);
  }
  for (std::size_t e = 0; e < akeys.size(); ++e) {
    if (aprobs[e] == 1.0) sample.push_back(akeys[e]);
  }
  return Sample(tau, std::move(sample));
}

namespace {

/// IO-AGGREGATE step shared by the 1-D two-pass variants: processes one key
/// against the active slot of its cell.
struct CellSlot {
  WeightedKey key;
  double p = 0.0;
  bool present = false;
};

void IoAggregateStep(const WeightedKey& item, double p, CellSlot* slot,
                     std::vector<WeightedKey>* sample, Rng* rng) {
  if (!slot->present) {
    slot->key = item;
    slot->p = p;
    slot->present = true;
    return;
  }
  PairAggregate(&p, &slot->p, rng);
  if (slot->p == 1.0) sample->push_back(slot->key);
  if (IsSet(slot->p)) slot->present = false;
  if (p == 1.0) sample->push_back(item);
  if (!IsSet(p)) {
    slot->key = item;
    slot->p = p;
    slot->present = true;
  }
}

}  // namespace

Sample TwoPassDisjointSample(const std::vector<WeightedKey>& items,
                             const std::vector<int>& range_of,
                             int num_ranges, double s,
                             const TwoPassConfig& cfg, Rng* rng) {
  assert(items.size() == range_of.size());
  // Pass 1.
  const auto sprime =
      static_cast<std::size_t>(std::max(1.0, cfg.sprime_factor * s));
  StreamTau tau_tracker(s);
  StreamVarOpt guide(sprime, rng->Split());
  for (const auto& it : items) {
    tau_tracker.Push(it.weight);
    guide.Push(it);
  }
  const double tau = tau_tracker.tau();

  // Partition: a dedicated cell per range represented in the guide sample,
  // plus one cell per maximal run of unrepresented range ids (these runs
  // carry < 1 probability mass w.h.p.).
  std::vector<char> represented(num_ranges, 0);
  const Sample guide_sample = guide.ToSample();
  for (const auto& k : guide_sample.entries()) {
    if (IppsProbability(k.weight, tau) < 1.0) {
      represented[range_of[k.id]] = 1;
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
  if (cells == 0) cells = 1;

  // Pass 2.
  std::vector<CellSlot> active(cells);
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();
  for (const auto& item : items) {
    if (item.weight <= 0.0) continue;
    const double p = SnapProbability(IppsProbability(item.weight, tau));
    if (p == 1.0) {
      sample.push_back(item);
      continue;
    }
    if (p == 0.0) continue;
    const int cell = std::max(0, cell_of_range[range_of[item.id]]);
    IoAggregateStep(item, p, &active[cell], &sample, &local);
  }

  // Final aggregation: across-cell order is arbitrary for disjoint ranges.
  std::vector<WeightedKey> akeys;
  std::vector<double> aprobs;
  for (const auto& slot : active) {
    if (slot.present) {
      akeys.push_back(slot.key);
      aprobs.push_back(slot.p);
    }
  }
  std::vector<std::size_t> order(akeys.size());
  std::iota(order.begin(), order.end(), 0);
  {
    RngStream draws(&local);
    const std::size_t leftover = ChainAggregateRange(
        aprobs.data(), order.data(), order.size(), kNoEntry, &draws);
    ResolveResidual(aprobs.data(), leftover, &draws);
  }
  for (std::size_t e = 0; e < akeys.size(); ++e) {
    if (aprobs[e] == 1.0) sample.push_back(akeys[e]);
  }
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
    for (auto& it : relabeled) {
      it.pt.x = h.rank_of_key(it.id);
    }
    return TwoPassOrderSample(relabeled, s, cfg, rng);
  }

  // Ancestor variant: select every ancestor of every guide key; each key's
  // cell is its lowest selected ancestor. Works best for shallow
  // hierarchies (the paper's caveat) but gives Delta < 1 w.h.p.
  const auto sprime =
      static_cast<std::size_t>(std::max(1.0, cfg.sprime_factor * s));
  StreamTau tau_tracker(s);
  StreamVarOpt guide(sprime, rng->Split());
  for (const auto& it : items) {
    tau_tracker.Push(it.weight);
    guide.Push(it);
  }
  const double tau = tau_tracker.tau();

  std::vector<char> selected(h.num_nodes(), 0);
  const Sample guide_sample = guide.ToSample();
  for (const auto& k : guide_sample.entries()) {
    if (IppsProbability(k.weight, tau) >= 1.0) continue;
    for (int v = h.leaf_of_key(k.id); v != Hierarchy::kNoParent;
         v = h.parent(v)) {
      if (selected[v]) break;  // ancestors above are already selected
      selected[v] = 1;
    }
  }
  selected[h.root()] = 1;  // catch-all for keys outside all guide subtrees

  // Dense cell ids for selected nodes.
  std::vector<int> cell_of_node(h.num_nodes(), -1);
  int cells = 0;
  for (int v = 0; v < h.num_nodes(); ++v) {
    if (selected[v]) cell_of_node[v] = cells++;
  }

  // Pass 2: a key's cell is its lowest selected ancestor.
  std::vector<CellSlot> active(cells);
  std::vector<WeightedKey> sample;
  Rng local = rng->Split();
  for (const auto& item : items) {
    if (item.weight <= 0.0) continue;
    const double p = SnapProbability(IppsProbability(item.weight, tau));
    if (p == 1.0) {
      sample.push_back(item);
      continue;
    }
    if (p == 0.0) continue;
    int v = h.leaf_of_key(item.id);
    while (!selected[v]) v = h.parent(v);
    IoAggregateStep(item, p, &active[cell_of_node[v]], &sample, &local);
  }

  // Final aggregation follows the hierarchy: bottom-up, each node chains
  // its own active key with the leftovers of its children (builders
  // guarantee parent(v) < v, so a reverse scan is bottom-up).
  std::vector<WeightedKey> akeys;
  std::vector<double> aprobs;
  std::vector<std::size_t> entry_of_cell(cells, kNoEntry);
  for (int c = 0; c < cells; ++c) {
    if (active[c].present) {
      entry_of_cell[c] = akeys.size();
      akeys.push_back(active[c].key);
      aprobs.push_back(active[c].p);
    }
  }
  std::vector<std::size_t> leftover(h.num_nodes(), kNoEntry);
  std::vector<std::size_t> entries;
  {
    RngStream draws(&local);
    for (int v = h.num_nodes() - 1; v >= 0; --v) {
      entries.clear();
      if (selected[v] && entry_of_cell[cell_of_node[v]] != kNoEntry) {
        entries.push_back(entry_of_cell[cell_of_node[v]]);
      }
      for (int c : h.children(v)) {
        if (leftover[c] != kNoEntry) entries.push_back(leftover[c]);
      }
      leftover[v] = ChainAggregateRange(aprobs.data(), entries.data(),
                                        entries.size(), kNoEntry, &draws);
    }
    ResolveResidual(aprobs.data(), leftover[h.root()], &draws);
  }
  for (std::size_t e = 0; e < akeys.size(); ++e) {
    if (aprobs[e] == 1.0) sample.push_back(akeys[e]);
  }
  return Sample(tau, std::move(sample));
}

}  // namespace sas
