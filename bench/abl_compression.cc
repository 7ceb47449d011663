// Ablation (§2.1): raw data units are "compressed using gnu-zip" before
// shipping; §2.3 archives them on CDs/tape. Measures the hzip codec's
// ratio and throughput on the three payload classes the system stores:
// encoded photon lists, FITS-lite containers, and rendered images (the
// 8-bit planes /analyze compresses for every fresh product).
#include <benchmark/benchmark.h>

#include <cmath>

#include "archive/compression.h"
#include "analysis/routine.h"
#include "core/bytes.h"
#include "core/rng.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace {

using hedc::archive::Compress;
using hedc::archive::Decompress;

const std::vector<uint8_t>& PhotonPayload() {
  static const std::vector<uint8_t>* const kPayload = [] {
    hedc::rhessi::TelemetryOptions options;
    options.duration_sec = 600;
    options.seed = 2;
    auto telemetry = hedc::rhessi::GenerateTelemetry(options);
    return new std::vector<uint8_t>(
        hedc::rhessi::EncodePhotons(telemetry.photons));
  }();
  return *kPayload;
}

const std::vector<uint8_t>& FitsPayload() {
  static const std::vector<uint8_t>* const kPayload = [] {
    hedc::rhessi::TelemetryOptions options;
    options.duration_sec = 300;
    options.seed = 3;
    auto telemetry = hedc::rhessi::GenerateTelemetry(options);
    hedc::rhessi::RawDataUnit unit;
    unit.unit_id = 1;
    unit.photons = telemetry.photons;
    return new std::vector<uint8_t>(unit.ToFits().Serialize());
  }();
  return *kPayload;
}

// The pixel plane RenderSeries compresses for `y`: 256x128, one lit pixel
// per column. Taken back out of the rendered bytes.
std::vector<uint8_t> PlotPlane(const std::vector<double>& y) {
  hedc::analysis::Series series;
  series.y = y;
  series.x.resize(y.size());
  std::vector<uint8_t> rendered = hedc::analysis::RenderSeries(series);
  hedc::ByteReader reader(rendered);
  uint32_t magic = 0;
  uint64_t width = 0, height = 0, clen = 0;
  double lo = 0, hi = 0;
  std::vector<uint8_t> compressed;
  if (reader.GetU32(&magic).ok() && reader.GetVarint(&width).ok() &&
      reader.GetVarint(&height).ok() && reader.GetF64(&lo).ok() &&
      reader.GetF64(&hi).ok() && reader.GetVarint(&clen).ok()) {
    compressed.resize(clen);
    if (!reader.GetBytes(compressed.data(), clen).ok()) compressed.clear();
  }
  auto plane = Decompress(compressed);
  return plane.ok() ? plane.value() : std::vector<uint8_t>{};
}

// A lightcurve's plot: a noisy series lights one pixel per column.
const std::vector<uint8_t>& LitColumnsPlane() {
  static const std::vector<uint8_t>* const kPlane = [] {
    hedc::Rng rng(4);
    std::vector<double> y(600);
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = 100 + 40 * std::sin(static_cast<double>(i) / 30.0) +
             rng.Uniform(-20, 20);
    }
    return new std::vector<uint8_t>(PlotPlane(y));
  }();
  return *kPlane;
}

// A flat series (an empty window's histogram) lights one row.
const std::vector<uint8_t>& FlatSeriesPlane() {
  static const std::vector<uint8_t>* const kPlane =
      new std::vector<uint8_t>(PlotPlane(std::vector<double>(64, 0.0)));
  return *kPlane;
}

void Ratio(benchmark::State& state, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> compressed;
  for (auto _ : state) {
    compressed = Compress(payload);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * payload.size()));
  state.counters["ratio"] = static_cast<double>(payload.size()) /
                            static_cast<double>(compressed.size());
}

void BM_CompressPhotonList(benchmark::State& state) {
  Ratio(state, PhotonPayload());
}
BENCHMARK(BM_CompressPhotonList);

void BM_CompressFitsUnit(benchmark::State& state) {
  Ratio(state, FitsPayload());
}
BENCHMARK(BM_CompressFitsUnit);

void BM_CompressPlotLitColumns(benchmark::State& state) {
  Ratio(state, LitColumnsPlane());
}
BENCHMARK(BM_CompressPlotLitColumns);

void BM_CompressPlotFlatSeries(benchmark::State& state) {
  Ratio(state, FlatSeriesPlane());
}
BENCHMARK(BM_CompressPlotFlatSeries);

void BM_DecompressFitsUnit(benchmark::State& state) {
  std::vector<uint8_t> compressed = Compress(FitsPayload());
  for (auto _ : state) {
    auto restored = Decompress(compressed);
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * FitsPayload().size()));
}
BENCHMARK(BM_DecompressFitsUnit);

}  // namespace

BENCHMARK_MAIN();
