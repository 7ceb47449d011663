// Sample statistics, registry counter deltas and process memory for the
// end-to-end benchmark.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"

namespace perfbench {

// A quantile as reported: the percentile actually used, its value and
// the sample count it was taken from.
struct Quantile {
  double p = 0;
  double value = 0;
  size_t n = 0;
};

// Nearest-rank quantile (p in [0, 1]) of `samples`; 0 when empty.
double QuantileOf(std::vector<double> samples, double p);

// The highest percentile, no higher than `wanted`, from the ladder
// {0.999, 0.99, 0.9, 0.5} that leaves at least 10 samples beyond it out
// of `n`. Falls back to the median when even p90 has fewer than 10
// samples beyond it.
double TailPercentileFor(size_t n, double wanted);

Quantile Median(const std::vector<double>& samples);
// QuantileOf at TailPercentileFor(samples.size(), wanted).
Quantile Tail(const std::vector<double>& samples, double wanted);

// Flat copy of a registry (counters, gauges, histogram .count/.sum/.p95).
using CounterSnapshot = std::map<std::string, double>;
CounterSnapshot TakeSnapshot(const hedc::MetricsRegistry& registry);
// after - before for every name in either snapshot (absent = 0). Series
// registered during the window therefore count from zero.
CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after);
double ValueOr0(const CounterSnapshot& snapshot, const std::string& name);

// num / den, or 0 when den is 0.
double Ratio(double num, double den);

// VmHWM of this process in MB (0 when /proc is unreadable).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
