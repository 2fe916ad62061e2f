// ProbVector: the mutable probability-vector state that probabilistic
// aggregation operates on (Section 2), kept as a test model of the
// aggregation invariants.
//
// It tracks which entries are still "open" (strictly between 0 and 1) and
// verifies the invariants that every probabilistic aggregate must keep:
// the sum of entries is preserved and entries that are set stay set.

#ifndef SAS_TESTS_CORE_PROB_VECTOR_H_
#define SAS_TESTS_CORE_PROB_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/pair_aggregate.h"
#include "core/random.h"

namespace sas {

class ProbVector {
 public:
  ProbVector() = default;
  explicit ProbVector(std::vector<double> probs) : p_(std::move(probs)) {
    for (auto& v : p_) {
      assert(v >= 0.0 && v <= 1.0);
      v = SnapProbability(v);
      sum_ += v;
      if (!IsSet(v)) ++open_count_;
    }
  }

  std::size_t size() const { return p_.size(); }
  double operator[](std::size_t i) const { return p_[i]; }
  const std::vector<double>& values() const { return p_; }

  /// Number of entries not yet set to exactly 0 or 1.
  std::size_t open_count() const { return open_count_; }

  /// Sum of all entries (maintained incrementally; exact up to FP error).
  double sum() const { return sum_; }

  bool IsSetAt(std::size_t i) const { return IsSet(p_[i]); }

  /// Applies PAIR-AGGREGATE to entries i and j. Requires both open.
  void Aggregate(std::size_t i, std::size_t j, Rng* rng) {
    assert(i != j);
    assert(!IsSetAt(i) && !IsSetAt(j));
    PairAggregate(&p_[i], &p_[j], rng);
    if (IsSet(p_[i])) --open_count_;
    if (IsSet(p_[j])) --open_count_;
  }

  /// Resolves a single remaining open entry by a Bernoulli draw. This is
  /// only needed when the initial sum is non-integral (or off by floating
  /// point error): a final lone entry q is set to 1 with probability q.
  /// Requires entry i to be open.
  void ResolveResidual(std::size_t i, Rng* rng) {
    assert(!IsSetAt(i));
    const double q = p_[i];
    p_[i] = rng->NextBernoulli(q) ? 1.0 : 0.0;
    sum_ += p_[i] - q;
    --open_count_;
  }

  /// Indices of entries equal to 1 (the chosen sample, once none are open).
  std::vector<std::size_t> OnesIndices() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < p_.size(); ++i) {
      if (p_[i] == 1.0) out.push_back(i);
    }
    return out;
  }

 private:
  std::vector<double> p_;
  std::size_t open_count_ = 0;
  double sum_ = 0.0;
};

}  // namespace sas

#endif  // SAS_TESTS_CORE_PROB_VECTOR_H_
