// Synthetic d-dimensional workloads for the general "nd" method: clustered
// point clouds in a d-dimensional product domain (d >= 1), plus box-query
// batteries with exact answers.
//
// Coordinates cluster the way the 2-D network generator's addresses do:
// each axis coordinate is built by descending its bit levels with a biased
// branch probability, so probability mass concentrates in a few subtrees at
// every prefix level. Weights are Pareto. Points are distinct.

#ifndef SAS_DATA_ND_GEN_H_
#define SAS_DATA_ND_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/types.h"

namespace sas {

/// A d-dimensional evaluation dataset: flat coordinates (point i occupies
/// coords[i*dims .. i*dims+dims)) with one weight per point.
struct DatasetNd {
  std::string name;
  int dims = 2;
  int axis_bits = 20;  // per-axis domain = 2^axis_bits
  std::vector<Coord> coords;
  std::vector<Weight> weights;

  std::size_t num_points() const { return weights.size(); }
  const Coord* point(std::size_t i) const { return &coords[i * dims]; }
  Coord axis_domain() const { return Coord{1} << axis_bits; }
  Weight total_weight() const;

  /// The same points as weighted keys: id = point index, pt = the first two
  /// axes (0 beyond dims). Lets weight-only methods (obliv, order over ids)
  /// ingest d-dimensional data through the ordinary Add path; evaluation
  /// stays id-keyed, so their estimates remain valid for any d.
  std::vector<WeightedKey> AsWeightedKeys() const;
};

struct NdCloudConfig {
  std::size_t num_points = 20000;
  int dims = 3;
  /// Per-axis domain bits; 0 picks max(6, 24 / dims) so the total space
  /// stays large enough for num_points distinct points at any d.
  int axis_bits = 0;
  double pareto_alpha = 1.2;  // weight tail
  /// Branch bias of the bit-level clustering in [0.5, 1): 0.5 is uniform,
  /// larger concentrates mass into fewer subtrees per level.
  double cluster_bias = 0.75;
  std::uint64_t seed = 42;
};

/// Generates a clustered d-dimensional cloud of distinct points.
DatasetNd GenerateNdCloud(const NdCloudConfig& cfg);

/// One d-dimensional box query with its exact answer over the full data.
struct NdQuery {
  BoxN box;
  Weight exact = 0.0;
};

struct NdQueryBattery {
  std::vector<NdQuery> queries;
  Weight data_total = 0.0;  // error normalizer
};

/// Battery of `num_queries` axis-parallel boxes placed uniformly at random,
/// side lengths uniform in [1, max_frac * axis domain]; exact answers are
/// computed against the full data.
NdQueryBattery UniformVolumeQueriesNd(const DatasetNd& ds, int num_queries,
                                      double max_frac, Rng* rng);

}  // namespace sas

#endif  // SAS_DATA_ND_GEN_H_
