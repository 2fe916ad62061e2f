// The sample-backed registry case table shared by the suites that pin
// accelerated queries against the linear Sample scans (tests/api/
// summary_query_test.cc, tests/serve/snapshot_test.cc): every
// sample-backed key family with the input and structure it needs, a fixed
// config, and a deterministic battery of boxes.

#ifndef SAS_TESTS_API_SAMPLE_CASES_H_
#define SAS_TESTS_API_SAMPLE_CASES_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "api/registry.h"
#include "core/random.h"
#include "core/types.h"
#include "structure/hierarchy.h"
#include "test_util.h"

namespace sas::test {

inline constexpr Coord kDomain = 1 << 10;
inline constexpr std::size_t kN = 120;

/// One registry key family plus the input/structure it needs (the
/// ingest_validation_test.cc case table, restricted to the sample-backed
/// methods, plus the sharded:, windowed: and serve: compositions).
struct MethodCase {
  std::string key;
  const std::vector<WeightedKey>* items;
  StructureSpec structure;
};

struct SampleCaseInputs {
  std::vector<WeightedKey> items;
  std::vector<WeightedKey> hier_items;
  Hierarchy hierarchy;
  std::vector<int> range_of;

  SampleCaseInputs() : hierarchy(MakeTree()) {
    Rng rng(11);
    items = RandomItems(kN, kDomain, &rng);
    for (KeyId k = 0; k < kN; ++k) {
      hier_items.push_back({k, items[k].weight, {k, 0}});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      range_of.push_back(static_cast<int>(i % 7));
    }
  }

  static Hierarchy MakeTree() {
    Rng tree_rng(12);
    return Hierarchy::Random(kN, 4, &tree_rng);
  }
};

inline std::vector<MethodCase> SampleBackedCases(const SampleCaseInputs& in) {
  return {
      {"order", &in.items, StructureSpec::Order()},
      {"hierarchy", &in.hier_items,
       StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"product", &in.items, StructureSpec::Product()},
      {"nd", &in.items, StructureSpec::Nd(2)},
      {"aware", &in.items, StructureSpec::Product()},
      {"order-2p", &in.items, StructureSpec::Order()},
      {"hierarchy-2p", &in.hier_items,
       StructureSpec::OverHierarchy(&in.hierarchy)},
      {"disjoint-2p", &in.items, StructureSpec::Disjoint(in.range_of, 7)},
      {"obliv", &in.items, StructureSpec::Product()},
      {"sharded:2:obliv", &in.items, StructureSpec::Product()},
      {"windowed:10:2:obliv", &in.items, StructureSpec::Product()},
      {"serve:obliv", &in.items, StructureSpec::Product()},
  };
}

inline SummarizerConfig BaseConfig(const MethodCase& c) {
  SummarizerConfig cfg;
  cfg.s = 32.0;
  cfg.seed = 4242;
  cfg.structure = c.structure;
  return cfg;
}

/// Deterministic battery of boxes covering empty, sliver, half-plane, and
/// full-domain shapes.
inline std::vector<Box> QueryBoxes(Rng* rng) {
  std::vector<Box> boxes = {
      {{0, kDomain}, {0, kDomain}},          // everything
      {{0, 0}, {0, kDomain}},                // empty x
      {{5, 6}, {0, kDomain}},                // x sliver
      {{0, kDomain / 2}, {0, kDomain}},      // half plane
      {{0, kDomain}, {kDomain / 2, kDomain}},
  };
  for (int i = 0; i < 40; ++i) {
    const Coord x1 = rng->NextBounded(kDomain);
    const Coord x2 = rng->NextBounded(kDomain);
    const Coord y1 = rng->NextBounded(kDomain);
    const Coord y2 = rng->NextBounded(kDomain);
    boxes.push_back({{std::min(x1, x2), std::max(x1, x2) + 1},
                     {std::min(y1, y2), std::max(y1, y2) + 1}});
  }
  return boxes;
}

}  // namespace sas::test

#endif  // SAS_TESTS_API_SAMPLE_CASES_H_
