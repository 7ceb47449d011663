// Ablation (§3.4, §6.3): approximated analysis via wavelet views.
//
// The paper's claim: pre-processing the raw data into wavelet-compressed
// range-partitioned views shortens the *holistic* response time (download
// + reconstruction + analysis) "by at least an order of magnitude",
// because analysis cost scales with input size and the approximated input
// is a small fraction of the raw data.
//
// Holistic time = bytes / 2 MB/s (the paper's client link) + decode +
// analysis-on-input, compared for the raw photon list vs prefixes of the
// per-unit view stream (each raw unit is one time partition of the view).
// Emits BENCH_wavelet_approx.json; `--smoke` runs fewer iterations for
// the bench-smoke ctest label.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "rhessi/photon.h"
#include "rhessi/telemetry.h"
#include "wavelet/codec.h"

namespace {

using hedc::bench::BenchRow;

using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::rhessi::GenerateTelemetry;
using hedc::rhessi::PhotonList;
using hedc::rhessi::TelemetryOptions;

constexpr double kLinkBytesPerSec = 2.0 * 1024 * 1024;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The analysis both paths run: total counts + peak bin over a time grid
// (the inner loop of lightcurve-style exploration).
double AnalyzeSeries(const std::vector<double>& bins) {
  double peak = 0, total = 0;
  for (double b : bins) {
    total += b;
    peak = std::max(peak, b);
  }
  return peak + total * 1e-9;
}

// Times `fn` `iters` times; returns per-iteration microseconds.
template <typename Fn>
std::vector<double> TimeUs(int iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters));
  volatile double sink = 0;
  for (int i = 0; i < iters; ++i) {
    double begin = NowUs();
    sink = sink + fn();
    samples.push_back(NowUs() - begin);
  }
  return samples;
}

BenchRow MakeRow(const std::string& label, std::vector<double> samples,
                 double bytes) {
  double p50 = PercentileUs(samples, 0.5);
  double p99 = PercentileUs(samples, 0.99);
  double mean = 0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(samples.size());
  double transfer_us = bytes / kLinkBytesPerSec * 1e6;
  // transfer_us and holistic_us come from the link formula, so the whole
  // row is modeled.
  return BenchRow{label, Source::kModeled,
                  {{"throughput_per_sec", mean > 0 ? 1e6 / mean : 0},
                   {"p50_us", p50},
                   {"p99_us", p99},
                   {"bytes", bytes},
                   {"transfer_us", transfer_us},
                   {"holistic_us", transfer_us + p50}}};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int iters = smoke ? 30 : 300;

  TelemetryOptions options;
  options.duration_sec = 1800;
  options.flares_per_hour = 6;
  options.seed = 4;
  const PhotonList photons = GenerateTelemetry(options).photons;
  const double raw_bytes =
      static_cast<double>(hedc::rhessi::EncodePhotons(photons).size());

  std::printf("Ablation: exact analysis on raw photons vs approximate "
              "analysis on wavelet view prefixes\n");
  std::printf("link model %.0f KB/s; %zu photons, %.0f raw bytes\n\n",
              kLinkBytesPerSec / 1024, photons.size(), raw_bytes);

  std::vector<BenchRow> rows;

  // Exact path: bin the full photon list, then analyze.
  double t_max = photons.back().time_sec + 1e-9;
  rows.push_back(MakeRow(
      "raw_exact", TimeUs(iters, [&] {
        std::vector<double> bins(1024, 0.0);
        for (const auto& p : photons) {
          bins[static_cast<size_t>(p.time_sec / t_max * 1023)] += 1.0;
        }
        return AnalyzeSeries(bins);
      }),
      raw_bytes));

  // Approximate path: the view stream a raw unit stores (one 1024-bin
  // progressive HWV3 stream, the format ProcessLayer::WriteViewFile
  // writes; encoded once at ingest, not charged). The client downloads a
  // coefficient fraction and analyzes the decode.
  std::vector<double> exact(1024, 0.0);
  for (const auto& p : photons) {
    exact[static_cast<size_t>(p.time_sec / t_max * 1023)] += 1.0;
  }
  std::vector<uint8_t> stream =
      hedc::wavelet::EncodeSignalProgressive(exact);
  const double stream_bytes = static_cast<double>(stream.size());

  for (int percent : {2, 10, 100}) {
    double fraction = percent / 100.0;
    rows.push_back(MakeRow(
        "view_fraction_" + std::to_string(percent), TimeUs(iters, [&] {
          auto bins = hedc::wavelet::DecodeSignal(stream, fraction);
          return AnalyzeSeries(bins.value());
        }),
        stream_bytes * fraction));
  }

  // Reconstruction-error profile: relative L2 error per prefix fraction.
  for (int percent : {2, 10, 50, 100}) {
    double fraction = percent / 100.0;
    auto approx = hedc::wavelet::DecodeSignal(stream, fraction);
    double error =
        hedc::wavelet::RelativeL2Error(exact, approx.value());
    BenchRow row = MakeRow("error_profile_" + std::to_string(percent),
                           TimeUs(iters, [&] {
                             auto decoded = hedc::wavelet::DecodeSignal(
                                 stream, fraction);
                             return decoded.value()[0];
                           }),
                           stream_bytes * fraction);
    row.metrics.emplace_back("rel_l2_error", error);
    rows.push_back(row);
  }

  std::printf("%-22s %12s %12s %12s %14s\n", "path", "bytes", "p50[us]",
              "p99[us]", "holistic[us]");
  for (const BenchRow& row : rows) {
    double bytes = 0, p50 = 0, p99 = 0, holistic = 0;
    for (const auto& [k, v] : row.metrics) {
      if (k == "bytes") bytes = v;
      if (k == "p50_us") p50 = v;
      if (k == "p99_us") p99 = v;
      if (k == "holistic_us") holistic = v;
    }
    std::printf("%-22s %12.0f %12.1f %12.1f %14.1f\n", row.label.c_str(),
                bytes, p50, p99, holistic);
  }
  std::printf("\nclaim: view_fraction_2 holistic time is >= 10x shorter "
              "than raw_exact (download dominates); validate_bench_json.py "
              "fails the run otherwise.\n");

  if (!hedc::bench::WriteBenchJson("BENCH_wavelet_approx.json",
                                   "wavelet_approx", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
