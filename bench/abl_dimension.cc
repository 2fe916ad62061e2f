// Ablation: dimension dependence of box discrepancy (Section 4). The
// structure-aware product sample has box discrepancy concentrated around
// s^((d-1)/(2d)): sqrt growth exponents 1/4 (d=2), 1/3 (d=3), 3/8 (d=4) —
// always below the structure-oblivious 1/2. Measured as RMS box-count
// discrepancy at increasing sample sizes, for d = 1..4, with the oblivious
// (random-order aggregation) figure alongside.

#include <cmath>
#include <set>

#include "api/registry.h"
#include "core/types.h"  // BoxN / BoxNContains
#include "core/ipps.h"
#include "core/pair_aggregate.h"
#include "eval/table.h"

int main(int argc, char** argv) {
  using namespace sas;
  (void)argc;
  (void)argv;
  std::printf("=== Ablation: box discrepancy vs dimension "
              "(RMS over random boxes) ===\n");
  Rng rng(99);
  Table table({"d", "s", "aware_rms", "obliv_rms", "aware/s^((d-1)/2d)"});
  for (int d = 1; d <= 4; ++d) {
    // Points on a d-dimensional random cloud. The per-axis domain shrinks
    // with d so the total space stays large enough for n distinct points
    // (d=1 needs 2^20 coordinates; d=4 only 2^5 per axis).
    const std::size_t n = 4096;
    const int axis_bits = std::max(5, 20 / d);
    const Coord domain = Coord{1} << axis_bits;
    std::set<std::vector<Coord>> seen;
    while (seen.size() < n) {
      std::vector<Coord> pt(d);
      for (auto& c : pt) c = rng.NextBounded(domain);
      seen.insert(pt);
    }
    std::vector<Coord> coords;
    std::vector<Weight> weights;
    for (const auto& pt : seen) {
      for (Coord c : pt) coords.push_back(c);
      weights.push_back(rng.NextPareto(1.4));
    }

    std::vector<BoxN> boxes;
    for (int b = 0; b < 25; ++b) {
      BoxN box(d);
      for (int a = 0; a < d; ++a) {
        const Coord lo = rng.NextBounded(domain / 2);
        box[a] = {lo, lo + 1 + rng.NextBounded(domain / 2)};
      }
      boxes.push_back(box);
    }

    for (double s : {64.0, 256.0, 1024.0}) {
      const double tau = SolveTau(weights, s);
      std::vector<double> probs;
      IppsProbabilities(weights, tau, &probs);
      std::vector<double> expected(boxes.size(), 0.0);
      for (std::size_t b = 0; b < boxes.size(); ++b) {
        for (std::size_t i = 0; i < n; ++i) {
          if (BoxNContains(boxes[b], &coords[i * d])) {
            expected[b] += probs[i];
          }
        }
      }
      auto rms = [&](auto&& chooser) {
        double sq = 0.0;
        const int trials = 40;
        for (int t = 0; t < trials; ++t) {
          const std::vector<std::size_t> chosen = chooser();
          std::vector<char> in(n, 0);
          for (std::size_t i : chosen) in[i] = 1;
          for (std::size_t b = 0; b < boxes.size(); ++b) {
            double actual = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
              if (in[i] && BoxNContains(boxes[b], &coords[i * d])) {
                actual += 1.0;
              }
            }
            sq += (actual - expected[b]) * (actual - expected[b]);
          }
        }
        return std::sqrt(sq / (trials * boxes.size()));
      };
      const double aware = rms([&] {
        SummarizerConfig cfg;
        cfg.s = s;
        cfg.seed = rng.Next();
        cfg.structure = StructureSpec::Nd(d);
        auto builder = MakeSummarizer(keys::kNd, cfg);
        for (std::size_t i = 0; i < n; ++i) {
          builder->AddCoords(&coords[i * d], d, weights[i]);
        }
        const auto summary = builder->Finalize();
        std::vector<std::size_t> chosen;
        for (const auto& e : summary->AsSample()->sample().entries()) {
          chosen.push_back(e.id);
        }
        return chosen;
      });
      const double obliv = rms([&] {
        std::vector<double> work = probs;
        for (auto& q : work) q = SnapProbability(q);
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        for (std::size_t i = n; i > 1; --i) {
          std::swap(order[i - 1], order[rng.NextBounded(i)]);
        }
        const std::size_t leftover =
            ChainAggregate(&work, order, kNoEntry, &rng);
        ResolveResidual(&work, leftover, &rng);
        std::vector<std::size_t> chosen;
        for (std::size_t i = 0; i < n; ++i) {
          if (work[i] == 1.0) chosen.push_back(i);
        }
        return chosen;
      });
      const double exponent = (d - 1.0) / (2.0 * d);
      table.AddRow({Table::Int(d), Table::Num(s), Table::Num(aware),
                    Table::Num(obliv),
                    Table::Num(aware / std::pow(s, exponent))});
    }
  }
  table.Print();
  std::printf("(aware normalized column should be ~flat per dimension; "
              "d=1 gives O(1) discrepancy)\n");
  return 0;
}
