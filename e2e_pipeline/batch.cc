// Batch phase: the paper's Fig. 3 path plus sharded ingest.
//
// For each seed of a fixed list (derived from the run seed) the phase
// builds the data through the registry under obliv, aware, product and
// sharded:3:obliv (MakeSummarizer -> AddBatch -> Finalize), checks every
// sample, and lets each obliv/aware/product summary answer the query
// battery with EstimateQuery. obliv and sharded:3:obliv are cheap, so each
// is built kCheapReps times per seed, interleaved. Each Step() builds under
// the next seed of the list; main.cc keeps stepping (cycling the list)
// until the run's time is up, but always finishes the first pass.
//
// The traced run (--trace 1) replaces the end-to-end metrics with
// per-layer ones. Per key it alternates an untraced build (telemetry
// disarmed) with a traced one (armed), whose difference is
// trace.overhead_pct. After each traced aware/product build it replays the
// same build phase by phase through the layers' public functions
// (TwoPassProductSampler; SolveTau, IppsProbabilities, KdHierarchy,
// KdAggregate), and checks the replay reproduces the registry sample bit
// for bit.

#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "aware/kd_hierarchy.h"
#include "aware/product_summarizer.h"
#include "aware/summarize_scratch.h"
#include "aware/two_pass.h"
#include "common.h"
#include "phases.h"
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "core/random.h"
#include "core/telemetry.h"
#include "eval/metrics.h"

namespace sas::e2e {
namespace {

constexpr const char kShardedKey[] = "sharded:3:obliv";
constexpr int kCheapReps = 2;

/// Wall times of one registry build, split at the API calls.
struct BuildTimes {
  double make_s = 0.0;
  double add_s = 0.0;
  double finalize_s = 0.0;
  double total() const { return make_s + add_s + finalize_s; }
};

std::unique_ptr<RangeSummary> Build(const std::string& key,
                                    const SummarizerConfig& cfg,
                                    const std::vector<WeightedKey>& items,
                                    BuildTimes* t) {
  const double t0 = NowS();
  auto builder = MakeSummarizer(key, cfg);
  const double t1 = NowS();
  builder->AddBatch(items);
  const double t2 = NowS();
  auto summary = builder->Finalize();
  const double t3 = NowS();
  t->make_s = t1 - t0;
  t->add_s = t2 - t1;
  t->finalize_s = t3 - t2;
  return summary;
}

/// The output check of every build: a sample of exactly s entries whose
/// Horvitz-Thompson total matches the data total to 1e-9 relative.
bool SampleOk(const RangeSummary& summary, std::size_t s, double total) {
  const SampleSummary* sample = summary.AsSample();
  if (sample == nullptr || sample->sample().size() != s) return false;
  const double est = sample->sample().EstimateTotal();
  return std::abs(est - total) <= 1e-9 * total;
}

bool SameSample(const Sample& a, const Sample& b) {
  if (a.tau() != b.tau() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const WeightedKey& x = a.entries()[i];
    const WeightedKey& y = b.entries()[i];
    if (x.id != y.id || x.weight != y.weight || !(x.pt == y.pt)) return false;
  }
  return true;
}

/// Phase times of one aware replay (TwoPassProductSampler driven directly,
/// seeded exactly like the registry's "aware" builder).
struct AwareReplay {
  double pass1_s = 0.0;
  double partition_s = 0.0;
  double pass2_s = 0.0;
  double final_s = 0.0;
  double cells = 0.0;
  Sample sample;
  double sum() const { return pass1_s + partition_s + pass2_s + final_s; }
};

AwareReplay ReplayAware(const std::vector<WeightedKey>& items,
                        const SummarizerConfig& cfg) {
  AwareReplay r;
  Rng rng(cfg.seed);
  const double t0 = NowS();
  TwoPassProductSampler sampler(cfg.s, TwoPassConfig{cfg.sprime_factor},
                                rng.Split());
  for (const WeightedKey& it : items) sampler.Pass1(it);
  const double t1 = NowS();
  sampler.BeginPass2();
  const double t2 = NowS();
  for (const WeightedKey& it : items) sampler.Pass2(it);
  const double t3 = NowS();
  r.sample = sampler.Finalize();
  const double t4 = NowS();
  r.pass1_s = t1 - t0;
  r.partition_s = t2 - t1;
  r.pass2_s = t3 - t2;
  r.final_s = t4 - t3;
  r.cells = static_cast<double>(sampler.num_cells());
  return r;
}

/// Phase times of one product replay: ProductSummarizeInto step by step,
/// with the same Rng(seed) the registry's "product" builder uses.
struct ProductReplay {
  double solve_tau_s = 0.0;
  double ipps_fill_s = 0.0;
  double kd_build_s = 0.0;
  double kd_aggregate_s = 0.0;
  double open_keys = 0.0;
  double kd_nodes = 0.0;
  Sample sample;
  double sum() const {
    return solve_tau_s + ipps_fill_s + kd_build_s + kd_aggregate_s;
  }
};

ProductReplay ReplayProduct(const std::vector<WeightedKey>& items,
                            const SummarizerConfig& cfg) {
  ProductReplay r;
  Rng rng(cfg.seed);
  SummarizeScratch scratch;  // fresh, like a fresh registry builder's
  SummarizeOutput out;
  const double t0 = NowS();
  auto& weights = scratch.weights;
  weights.reserve(items.size());
  for (const WeightedKey& it : items) weights.push_back(it.weight);
  out.tau = SolveTau(weights, cfg.s, &scratch.ipps);
  const double t1 = NowS();
  IppsProbabilities(weights, out.tau, &out.probs);
  for (double& q : out.probs) q = SnapProbability(q);
  const double t2 = NowS();
  auto& open = scratch.open;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!IsSet(out.probs[i])) open.push_back(i);
  }
  scratch.pts.reserve(open.size());
  scratch.mass.reserve(open.size());
  for (std::size_t i : open) {
    scratch.pts.push_back(items[i].pt);
    scratch.mass.push_back(out.probs[i]);
  }
  KdHierarchy::BuildInto(scratch.pts, scratch.mass, &scratch.kd,
                         &scratch.tree);
  const double t3 = NowS();
  scratch.work.assign(scratch.mass.begin(), scratch.mass.end());
  KdAggregate(&scratch.work, scratch.tree, &rng, &scratch);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (out.probs[i] == 1.0) {
      out.chosen.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t j = 0; j < open.size(); ++j) {
    if (scratch.work[j] == 1.0) {
      out.chosen.push_back(static_cast<std::uint32_t>(open[j]));
    }
  }
  const double t4 = NowS();
  std::vector<WeightedKey> entries;
  entries.reserve(out.chosen.size());
  for (std::uint32_t i : out.chosen) entries.push_back(items[i]);
  r.sample = Sample(out.tau, std::move(entries));
  r.solve_tau_s = t1 - t0;
  r.ipps_fill_s = t2 - t1;
  r.kd_build_s = t3 - t2;
  r.kd_aggregate_s = t4 - t3;
  r.open_keys = static_cast<double>(open.size());
  r.kd_nodes = static_cast<double>(scratch.tree.num_nodes());
  return r;
}

/// Per-layer accumulators of the traced run.
struct LayerTrace {
  // Traced and untraced end-to-end build seconds per key.
  std::vector<double> traced[4];
  std::vector<double> untraced[4];
  std::vector<double> obliv_push_ns;  // AddBatch ns per item, obliv
  std::vector<AwareReplay> aware;
  std::vector<double> aware_build_s;
  std::vector<ProductReplay> product;
  std::vector<double> product_build_s;
  std::vector<double> rect_ns;
  double rect_entries = 0.0;
  double rect_matches = 0.0;
  double shard_push_s = 0.0;
  double shard_finalize_s = 0.0;
  int shard_builds = 0;
  Reconcile aware_rec;
  Reconcile product_rec;
};

double CounterValue(const telemetry::TelemetrySnapshot& s,
                    const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

/// Per-rectangle EstimateBox timing on one sample, with the entries
/// scanned (the linear scan reads every entry) and matched.
void TraceRects(const Sample& sample, const QueryBattery& battery,
                LayerTrace* lt) {
  for (const MultiRangeQuery& q : battery.queries) {
    for (const Box& box : q.boxes) {
      const double t0 = NowS();
      const Weight w = sample.EstimateBox(box);
      const double t1 = NowS();
      static_cast<void>(w);
      lt->rect_ns.push_back((t1 - t0) * 1e9);
      lt->rect_entries += static_cast<double>(sample.size());
      lt->rect_matches += static_cast<double>(sample.CountInBox(box));
    }
  }
}

enum KeyIndex { kObliv = 0, kAware = 1, kProduct = 2, kSharded = 3 };

}  // namespace

struct BatchPhase::State {
  const Options& opt;
  const WorkloadSpec& spec;
  const Inputs& in;
  Tally* tally;
  std::string key_names[4] = {keys::kObliv, keys::kAware, keys::kProduct,
                              kShardedKey};
  std::vector<std::uint64_t> seeds;
  std::size_t step = 0;
  double busy_s = 0.0;

  std::vector<double> build_s[4];
  std::vector<double> query_us;
  double err_sum[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<Weight> estimates;
  std::vector<Weight> exacts;
  LayerTrace lt;

  State(const Options& o, const WorkloadSpec& sp, const Inputs& i, Tally* t)
      : opt(o), spec(sp), in(i), tally(t) {
    for (int k = 0; k < spec.build_seeds; ++k) {
      seeds.push_back(ForkSeed(opt.seed, 100 + static_cast<std::uint64_t>(k)));
    }
    for (const auto& q : in.battery.queries) exacts.push_back(q.exact);
  }

  std::unique_ptr<RangeSummary> RunBuild(int k, std::uint64_t seed,
                                         bool first_pass);
  void RunQueries(const RangeSummary& summary);
};

// One build of key k under `seed`: timed, checked, counted. In the traced
// run, also the untraced twin and the per-layer split.
std::unique_ptr<RangeSummary> BatchPhase::State::RunBuild(int k,
                                                          std::uint64_t seed,
                                                          bool first_pass) {
  const std::vector<WeightedKey>& items = in.data.items;
  const double total = in.battery.data_total;
  const std::size_t s = spec.batch_s;
  SummarizerConfig cfg;
  cfg.s = static_cast<double>(s);
  cfg.seed = seed;
  BuildTimes t;
  std::unique_ptr<RangeSummary> summary;
  // The untraced twin runs before or after the traced build, alternately,
  // so neither side always finds the caches warm.
  auto untraced_twin = [&] {
    telemetry::SetEnabled(false);
    BuildTimes untraced;
    tally->Check(
        SampleOk(*Build(key_names[k], cfg, items, &untraced), s, total));
    lt.untraced[k].push_back(untraced.total());
    telemetry::SetEnabled(true);
  };
  const bool twin_first = (lt.untraced[k].size() % 2) == 0;
  try {
    if (opt.trace && twin_first) untraced_twin();
    summary = Build(key_names[k], cfg, items, &t);
    if (opt.trace && !twin_first) untraced_twin();
    if (!tally->Check(SampleOk(*summary, s, total))) return summary;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_pipeline: build %s: %s\n",
                 key_names[k].c_str(), e.what());
    tally->Check(false);
    return nullptr;
  }
  build_s[k].push_back(t.total());
  if (!opt.trace) return summary;

  lt.traced[k].push_back(t.total());
  const Sample& built = summary->AsSample()->sample();
  if (k == kObliv) {
    lt.obliv_push_ns.push_back(t.add_s * 1e9 /
                               static_cast<double>(items.size()));
  } else if (k == kSharded) {
    lt.shard_push_s += t.add_s;
    lt.shard_finalize_s += t.finalize_s;
    ++lt.shard_builds;
  } else if (k == kAware && first_pass) {
    AwareReplay r = ReplayAware(items, cfg);
    ++lt.aware_rec.builds;
    if (tally->Check(SameSample(r.sample, built))) ++lt.aware_rec.identical;
    lt.aware_build_s.push_back(t.total());
    lt.aware.push_back(std::move(r));
  } else if (k == kProduct && first_pass) {
    ProductReplay r = ReplayProduct(items, cfg);
    ++lt.product_rec.builds;
    if (tally->Check(SameSample(r.sample, built))) ++lt.product_rec.identical;
    lt.product_build_s.push_back(t.total());
    lt.product.push_back(std::move(r));
  }
  return summary;
}

void BatchPhase::State::RunQueries(const RangeSummary& summary) {
  estimates.clear();
  for (const MultiRangeQuery& q : in.battery.queries) {
    const double t0 = NowS();
    estimates.push_back(summary.EstimateQuery(q));
    query_us.push_back((NowS() - t0) * 1e6);
  }
}

BatchPhase::BatchPhase(const Options& opt, const WorkloadSpec& spec,
                       const Inputs& in, Tally* tally)
    : st_(std::make_unique<State>(opt, spec, in, tally)) {}

BatchPhase::~BatchPhase() = default;

bool BatchPhase::FirstPassDone() const {
  return st_->step >= st_->seeds.size();
}

double BatchPhase::Step() {
  State& st = *st_;
  const double t0 = NowS();
  const std::uint64_t seed = st.seeds[st.step % st.seeds.size()];
  const bool first_pass = !FirstPassDone();
  for (int k : {kAware, kProduct}) {
    auto summary = st.RunBuild(k, seed, first_pass);
    if (summary == nullptr) continue;
    st.RunQueries(*summary);
    if (!first_pass) continue;
    st.err_sum[k] += ComputeErrors(st.estimates, st.exacts,
                                   st.in.battery.data_total)
                         .mean_abs;
    if (st.opt.trace) {
      TraceRects(summary->AsSample()->sample(), st.in.battery, &st.lt);
    }
  }
  for (int rep = 0; rep < kCheapReps; ++rep) {
    auto summary = st.RunBuild(kObliv, seed, first_pass);
    if (summary != nullptr && rep == 0) st.RunQueries(*summary);
    st.RunBuild(kSharded, seed, first_pass);
  }
  ++st.step;
  const double step_s = NowS() - t0;
  st.busy_s += step_s;
  return step_s;
}

void BatchPhase::Report(const telemetry::TelemetrySnapshot& diff,
                        Metrics* out, Reconcile* aware_rec,
                        Reconcile* product_rec) {
  State& st = *st_;
  const auto& build_s = st.build_s;
  std::printf("# batch phase: %zu aware, %zu product, %zu obliv, %zu %s "
              "builds, %zu queries in %.2f s\n",
              build_s[kAware].size(), build_s[kProduct].size(),
              build_s[kObliv].size(), build_s[kSharded].size(), kShardedKey,
              st.query_us.size(), st.busy_s);

  if (!st.opt.trace) {
    const double n_seeds = static_cast<double>(st.seeds.size());
    out->Set("build_s.obliv", Median(build_s[kObliv]), "s");
    out->Set("build_s.aware", Median(build_s[kAware]), "s");
    out->Set("build_s.product", Median(build_s[kProduct]), "s");
    out->Set("build_s.sharded", Median(build_s[kSharded]), "s");
    out->Set("query_us.p50", Quantile(st.query_us, 0.50), "us");
    out->Set("query_us.p99", Quantile(st.query_us, 0.99), "us");
    out->Set("err.aware", st.err_sum[kAware] / n_seeds, "fraction");
    out->Set("err.product", st.err_sum[kProduct] / n_seeds, "fraction");
    return;
  }

  const LayerTrace& lt = st.lt;
  Tally* tally = st.tally;
  const double n_items = static_cast<double>(st.in.data.items.size());
  *aware_rec = lt.aware_rec;
  *product_rec = lt.product_rec;

  out->Set("sampling.push_ns_per_item", Median(lt.obliv_push_ns), "ns");

  // Aware: phases, the residual the registry adds, and reconciliation.
  std::vector<double> pass1, partition, pass2, fin, cells, aware_sum;
  for (const AwareReplay& r : lt.aware) {
    pass1.push_back(r.pass1_s);
    partition.push_back(r.partition_s);
    pass2.push_back(r.pass2_s);
    fin.push_back(r.final_s);
    cells.push_back(r.cells);
    aware_sum.push_back(r.sum());
  }
  const double aware_build = Mean(lt.aware_build_s);
  const double aware_residual = aware_build - Mean(aware_sum);
  const double aware_phases =
      Mean(pass1) + Mean(partition) + Mean(pass2) + Mean(fin);
  aware_rec->sum_gap =
      std::abs(aware_phases + aware_residual - aware_build) / aware_build;
  tally->Check(aware_rec->sum_gap <= 1e-9);
  out->Set("aware.pass1_s", Mean(pass1), "s");
  out->Set("aware.partition_s", Mean(partition), "s");
  out->Set("aware.pass2_s", Mean(pass2), "s");
  out->Set("aware.final_s", Mean(fin), "s");
  out->Set("aware.locate_ns_per_item", Mean(pass2) * 1e9 / n_items, "ns");
  out->Set("aware.cells", Mean(cells), "count");

  // Product: phases and the same reconciliation.
  std::vector<double> tau, fill, kd_build, kd_agg, open, nodes, product_sum;
  for (const ProductReplay& r : lt.product) {
    tau.push_back(r.solve_tau_s);
    fill.push_back(r.ipps_fill_s);
    kd_build.push_back(r.kd_build_s);
    kd_agg.push_back(r.kd_aggregate_s);
    open.push_back(r.open_keys);
    nodes.push_back(r.kd_nodes);
    product_sum.push_back(r.sum());
  }
  const double product_build = Mean(lt.product_build_s);
  const double product_residual = product_build - Mean(product_sum);
  const double product_phases =
      Mean(tau) + Mean(fill) + Mean(kd_build) + Mean(kd_agg);
  product_rec->sum_gap =
      std::abs(product_phases + product_residual - product_build) /
      product_build;
  tally->Check(product_rec->sum_gap <= 1e-9);
  out->Set("core.solve_tau_s", Mean(tau), "s");
  out->Set("core.ipps_fill_s", Mean(fill), "s");
  out->Set("aware.kd_build_s", Mean(kd_build), "s");
  out->Set("aware.kd_aggregate_s", Mean(kd_agg), "s");
  out->Set("aware.open_keys", Mean(open), "count");
  out->Set("aware.kd_nodes", Mean(nodes), "count");
  out->Set("api.residual_s.aware", aware_residual, "s");
  out->Set("api.residual_s.product", product_residual, "s");

  // Query: the per-rectangle scan.
  out->Set("query.rect_ns", Mean(lt.rect_ns), "ns");
  out->Set("query.entries_per_rect",
           lt.rect_entries / static_cast<double>(lt.rect_ns.size()), "count");
  out->Set("query.match_ratio", lt.rect_matches / lt.rect_entries, "ratio");

  // Shard: producer push and finalize, plus the wrapper's own instruments.
  const double builds = static_cast<double>(lt.shard_builds);
  out->Set("shard.push_s", lt.shard_push_s / builds, "s");
  out->Set("shard.finalize_s", lt.shard_finalize_s / builds, "s");
  out->Set("shard.merge_ms", HistogramMean(diff, "sas.shard.merge_ns") * 1e-6,
           "ms");
  out->Set("shard.backpressure_share",
           HistogramSum(diff, "sas.shard.backpressure_wait_ns") * 1e-9 /
               lt.shard_push_s,
           "ratio");
  double lane_max = 0.0;
  double lane_sum = 0.0;
  for (int lane = 0; lane < 3; ++lane) {
    const double v =
        CounterValue(diff, "sas.shard.items." + std::to_string(lane));
    lane_max = std::max(lane_max, v);
    lane_sum += v;
  }
  out->Set("shard.items_skew",
           lane_sum > 0.0 ? lane_max / (lane_sum / 3.0) : 0.0, "ratio");

  // Tracing overhead on the batch builds: traced minus untraced.
  double traced = 0.0;
  double untraced = 0.0;
  for (int k = 0; k < 4; ++k) {
    traced += Median(lt.traced[k]);
    untraced += Median(lt.untraced[k]);
  }
  out->Set("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");
}

}  // namespace sas::e2e
