// Approximate COUNT / SUM answers for dashboard-style range queries
// (§3.4/§6.3: "most questions are answered approximately from small
// derived summaries rather than raw data").
//
// Two estimators:
//  - ApproxSumFromPrefix: deterministic, from a progressive wavelet
//    stream prefix. The ± bars come from the dropped-coefficient energy
//    accounting in the stream header (see PrefixInfo in codec.h), so
//    |true - estimate| <= error_bound always holds against the original
//    binned signal.
//  - ReservoirSampler: probabilistic fallback when no view exists
//    (Vitter's algorithm R over (position, value) pairs); its bars are
//    ~95% (two standard errors) with finite-population correction.
#ifndef HEDC_ANALYSIS_APPROX_H_
#define HEDC_ANALYSIS_APPROX_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/status.h"

namespace hedc::analysis {

struct ApproxAnswer {
  double estimate = 0;
  double error_bound = 0;  // deterministic, or ~2 sigma for sampling
  size_t bins = 0;         // bins (or sample items) contributing
  size_t bytes_read = 0;   // encoded bytes consumed (prefix estimators)
};

// Sum of the binned signal over the domain fraction [range_lo_frac,
// range_hi_frac) of [0, 1), reconstructed from the first `size` bytes of
// a progressive (HWV3) wavelet stream. The sum covers every bin the range
// touches, bins floor(lo * n) up to ceil(hi * n) exclusive, so a
// zero-width range strictly inside a bin counts that bin; /approx point
// queries at a bin centre rely on this. Fractions are clamped to [0, 1]
// (a range beyond the domain sums no bins); an inverted pair is
// InvalidArgument.
Result<ApproxAnswer> ApproxSumFromPrefix(const uint8_t* data, size_t size,
                                         double range_lo_frac,
                                         double range_hi_frac);

// Uniform reservoir over (position, value) pairs, Vitter's algorithm R:
// the first `capacity` items fill the reservoir, item i > capacity
// replaces a random slot with probability capacity / (i + 1).
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, uint64_t seed);

  void Add(double position, double value);

  size_t seen() const { return seen_; }
  size_t size() const { return sample_.size(); }

  // Estimated number of items with position in [lo, hi).
  ApproxAnswer EstimateCountInRange(double lo, double hi) const;
  // Estimated sum of `value` over items with position in [lo, hi).
  ApproxAnswer EstimateSumInRange(double lo, double hi) const;

 private:
  // Scaled mean of f(item) over the population with a 2-standard-error
  // bar (finite-population corrected).
  template <typename Fn>
  ApproxAnswer Estimate(Fn contribution) const;

  size_t capacity_;
  Rng rng_;
  size_t seen_ = 0;
  std::vector<std::pair<double, double>> sample_;  // (position, value)
};

}  // namespace hedc::analysis

#endif  // HEDC_ANALYSIS_APPROX_H_
