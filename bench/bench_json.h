// Machine-readable bench output. Every perf harness writes a
// BENCH_<name>.json next to its stdout report so successive PRs have a
// perf trajectory to compare against:
//   {"bench": "<name>",
//    "results": [{"label": "...", "source": "measured"|"modeled",
//                 "<metric>": n, ...}]}
// Rows carry at least throughput_per_sec, p50_us and p99_us, and say
// where their numbers come from (enforced by bench/validate_bench_json.py,
// run under the `bench-smoke` ctest label).
#ifndef HEDC_BENCH_BENCH_JSON_H_
#define HEDC_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace hedc::bench {

// Where a row's numbers come from. A row is kModeled if any of its
// numbers comes from the DES, a formula or an injected sleep; kMeasured
// rows time the code they run and nothing else.
enum class Source { kMeasured, kModeled };

// One result row: a label, its source, plus ordered numeric metrics.
// Labels and metric names must not contain characters needing JSON
// escapes.
struct BenchRow {
  BenchRow(std::string label, Source source,
           std::vector<std::pair<std::string, double>> metrics = {})
      : label(std::move(label)), source(source), metrics(std::move(metrics)) {}

  std::string label;
  Source source;
  std::vector<std::pair<std::string, double>> metrics;
};

inline bool WriteBenchJson(const std::string& path, const std::string& bench,
                           const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               bench.c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {\"label\": \"%s\", \"source\": \"%s\"",
                 rows[i].label.c_str(),
                 rows[i].source == Source::kModeled ? "modeled" : "measured");
    for (const auto& [key, value] : rows[i].metrics) {
      std::fprintf(f, ", \"%s\": %.6g", key.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

// Nearest-rank percentile (p in [0,1]); sorts a copy.
inline double PercentileUs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p * (samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace hedc::bench

#endif  // HEDC_BENCH_BENCH_JSON_H_
