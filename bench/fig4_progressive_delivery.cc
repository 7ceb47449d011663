// Progressive multi-resolution view delivery (§6.3): one stored HWV3
// stream serves every resolution as a byte prefix, so the first paint of
// a browse view costs a small fraction of the full-fidelity download.
//
// Measures, over the paper's 2 MB/s client link model plus real decode
// time:
//   - first-paint latency per resolution level (prefix bytes + decode)
//     vs the full-fidelity stream — the acceptance gate is coarse first
//     paint >= 5x faster than full fidelity;
//   - error-bounded approximate COUNT/SUM from coarse prefixes across
//     5 telemetry seeds — measured error must sit within the reported
//     deterministic bound (validated by bench/validate_bench_json.py).
// Emits BENCH_wavelet_progressive.json; `--smoke` runs fewer iterations.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/approx.h"
#include "bench_json.h"
#include "rhessi/telemetry.h"
#include "wavelet/codec.h"

namespace {

using hedc::bench::BenchRow;

using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::rhessi::GenerateTelemetry;
using hedc::rhessi::TelemetryOptions;

constexpr double kLinkBytesPerSec = 2.0 * 1024 * 1024;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// 1024-bin count + keV signals, the exact shape the process layer stores
// per raw unit (ProcessLayer::WriteViewFile).
struct ViewSignals {
  std::vector<double> counts;
  std::vector<double> energies;
};

ViewSignals BinTelemetry(uint64_t seed, double duration_sec) {
  TelemetryOptions options;
  options.duration_sec = duration_sec;
  options.flares_per_hour = 6;
  options.seed = seed;
  auto telemetry = GenerateTelemetry(options);
  ViewSignals signals;
  signals.counts.assign(1024, 0.0);
  signals.energies.assign(1024, 0.0);
  double width = duration_sec / 1024.0;
  for (const auto& p : telemetry.photons) {
    size_t b = static_cast<size_t>(p.time_sec / width);
    if (b >= 1024) b = 1023;
    signals.counts[b] += 1.0;
    signals.energies[b] += p.energy_kev;
  }
  return signals;
}

// Decode latency distribution for one delivered prefix.
std::vector<double> DecodeSamplesUs(const std::vector<uint8_t>& prefix,
                                    int iters) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  volatile double sink = 0;
  for (int i = 0; i < iters; ++i) {
    double begin = NowUs();
    auto decoded = hedc::wavelet::DecodeSignalPrefix(prefix);
    sink = sink + decoded.value()[0];
    samples.push_back(NowUs() - begin);
  }
  return samples;
}

BenchRow DeliveryRow(const std::string& label,
                     const std::vector<uint8_t>& prefix, int iters) {
  std::vector<double> samples = DecodeSamplesUs(prefix, iters);
  double decode_p50 = PercentileUs(samples, 0.5);
  double decode_p99 = PercentileUs(samples, 0.99);
  double transfer_us =
      static_cast<double>(prefix.size()) / kLinkBytesPerSec * 1e6;
  // First paint = modeled transfer + measured decode; throughput is
  // paints per second at that latency.
  double p50 = transfer_us + decode_p50;
  double p99 = transfer_us + decode_p99;
  return BenchRow{label, Source::kModeled,
                  {{"throughput_per_sec", p50 > 0 ? 1e6 / p50 : 0},
                   {"p50_us", p50},
                   {"p99_us", p99},
                   {"bytes", static_cast<double>(prefix.size())},
                   {"transfer_us", transfer_us},
                   {"decode_p50_us", decode_p50}}};
}

BenchRow ApproxRow(const std::string& label,
                   const std::vector<uint8_t>& stream, size_t level,
                   const std::vector<double>& signal, int iters) {
  auto prefix = hedc::wavelet::SlicePrefixForLevel(stream, level);
  // A window that does not align with the dyadic coefficient blocks, so
  // coarse prefixes genuinely approximate (bins 217..874 of 1024).
  double lo = 0.212, hi = 0.853;
  size_t lo_bin = static_cast<size_t>(lo * 1024.0);
  size_t hi_bin = static_cast<size_t>(std::ceil(hi * 1024.0));
  double exact = 0;
  for (size_t i = lo_bin; i < hi_bin; ++i) exact += signal[i];

  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  hedc::analysis::ApproxAnswer answer;
  for (int i = 0; i < iters; ++i) {
    double begin = NowUs();
    auto result = hedc::analysis::ApproxSumFromPrefix(
        prefix.value().data(), prefix.value().size(), lo, hi);
    answer = result.value();
    samples.push_back(NowUs() - begin);
  }
  double p50 = PercentileUs(samples, 0.5);
  double mean = 0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(samples.size());
  return BenchRow{
      label, Source::kMeasured,
      {{"throughput_per_sec", mean > 0 ? 1e6 / mean : 0},
       {"p50_us", p50},
       {"p99_us", PercentileUs(samples, 0.99)},
       {"bytes", static_cast<double>(prefix.value().size())},
       {"estimate", answer.estimate},
       {"exact", exact},
       {"measured_error", std::abs(answer.estimate - exact)},
       {"error_bound", answer.error_bound}}};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int iters = smoke ? 50 : 500;
  const double duration = smoke ? 600 : 1800;

  ViewSignals signals = BinTelemetry(/*seed=*/4, duration);
  std::vector<uint8_t> stream =
      hedc::wavelet::EncodeSignalProgressive(signals.counts);
  auto levels = hedc::wavelet::ResolutionLevels(stream);
  if (!levels.ok()) {
    std::fprintf(stderr, "bad stream: %s\n",
                 levels.status().ToString().c_str());
    return 1;
  }

  std::printf("Progressive view delivery: first paint per resolution vs "
              "full fidelity (link %.0f KB/s)\n\n",
              kLinkBytesPerSec / 1024);
  std::vector<BenchRow> rows;
  rows.push_back(DeliveryRow("full_fidelity", stream, iters));
  for (size_t level = 0; level < levels.value(); ++level) {
    auto prefix = hedc::wavelet::SlicePrefixForLevel(stream, level);
    rows.push_back(DeliveryRow(
        "progressive_resolution_" + std::to_string(level), prefix.value(),
        iters));
  }

  std::printf("%-26s %10s %12s %12s\n", "delivery", "bytes", "p50[us]",
              "p99[us]");
  double full_p50 = 0, coarse_p50 = 0;
  for (const BenchRow& row : rows) {
    double bytes = 0, p50 = 0, p99 = 0;
    for (const auto& [k, v] : row.metrics) {
      if (k == "bytes") bytes = v;
      if (k == "p50_us") p50 = v;
      if (k == "p99_us") p99 = v;
    }
    if (row.label == "full_fidelity") full_p50 = p50;
    if (row.label == "progressive_resolution_0") coarse_p50 = p50;
    std::printf("%-26s %10.0f %12.1f %12.1f\n", row.label.c_str(), bytes,
                p50, p99);
  }
  std::printf("\nfirst-paint speedup (full / coarsest): %.1fx "
              "(acceptance gate >= 5x)\n\n",
              coarse_p50 > 0 ? full_p50 / coarse_p50 : 0);

  // Approximate aggregates across seeds: COUNT from the count signal,
  // SUM(keV) from the energy signal, both at the coarse default level.
  std::printf("%-22s %14s %14s %14s %14s\n", "aggregate", "estimate",
              "exact", "|error|", "bound");
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ViewSignals per_seed = BinTelemetry(seed, duration);
    std::vector<uint8_t> count_stream =
        hedc::wavelet::EncodeSignalProgressive(per_seed.counts);
    std::vector<uint8_t> energy_stream =
        hedc::wavelet::EncodeSignalProgressive(per_seed.energies);
    BenchRow count_row =
        ApproxRow("approx_count_seed_" + std::to_string(seed),
                  count_stream, /*level=*/3, per_seed.counts, iters);
    BenchRow sum_row =
        ApproxRow("approx_sum_seed_" + std::to_string(seed), energy_stream,
                  /*level=*/3, per_seed.energies, iters);
    for (const BenchRow* row : {&count_row, &sum_row}) {
      double estimate = 0, exact = 0, error = 0, bound = 0;
      for (const auto& [k, v] : row->metrics) {
        if (k == "estimate") estimate = v;
        if (k == "exact") exact = v;
        if (k == "measured_error") error = v;
        if (k == "error_bound") bound = v;
      }
      std::printf("%-22s %14.1f %14.1f %14.1f %14.1f\n",
                  row->label.c_str(), estimate, exact, error, bound);
    }
    rows.push_back(count_row);
    rows.push_back(sum_row);
  }

  if (!hedc::bench::WriteBenchJson("BENCH_wavelet_progressive.json",
                                   "wavelet_progressive", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
