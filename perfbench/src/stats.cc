#include "stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

namespace perfbench {

namespace {

// Rank (1-based) of the nearest-rank p-quantile among n samples.
size_t RankFor(size_t n, double p) {
  if (n == 0) return 0;
  double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

double QuantileOf(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = RankFor(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double TailPercentileFor(size_t n, double wanted) {
  for (double p : {0.999, 0.99, 0.9}) {
    if (p > wanted + 1e-12) continue;
    if (n > 0 && n - RankFor(n, p) >= 10) return p;
  }
  return 0.5;
}

Quantile Median(const std::vector<double>& samples) {
  return Quantile{0.5, QuantileOf(samples, 0.5), samples.size()};
}

Quantile Tail(const std::vector<double>& samples, double wanted) {
  double p = TailPercentileFor(samples.size(), wanted);
  return Quantile{p, QuantileOf(samples, p), samples.size()};
}

CounterSnapshot TakeSnapshot(const hedc::MetricsRegistry& registry) {
  CounterSnapshot out;
  for (const auto& value : registry.SnapshotValues()) {
    out[value.name] = value.value;
  }
  return out;
}

CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after) {
  std::set<std::string> names;
  for (const auto& [name, v] : before) names.insert(name);
  for (const auto& [name, v] : after) names.insert(name);
  CounterSnapshot out;
  for (const std::string& name : names) {
    out[name] = ValueOr0(after, name) - ValueOr0(before, name);
  }
  return out;
}

double ValueOr0(const CounterSnapshot& snapshot, const std::string& name) {
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() { return ProcStatusMb("VmHWM"); }

}  // namespace perfbench
