// Analysis routines and products.
#include <gtest/gtest.h>

#include <cmath>

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "analysis/approx.h"
#include "analysis/routine.h"
#include "core/rng.h"
#include "rhessi/telemetry.h"
#include "wavelet/codec.h"

namespace hedc::analysis {
namespace {

rhessi::PhotonList MakePhotons(size_t n, double duration = 100.0) {
  rhessi::PhotonList photons;
  for (size_t i = 0; i < n; ++i) {
    rhessi::PhotonEvent p;
    p.time_sec = duration * static_cast<double>(i) / static_cast<double>(n);
    p.energy_kev = 3.0f + static_cast<float>(i % 200);
    p.detector = static_cast<uint8_t>(i % rhessi::kNumCollimators);
    photons.push_back(p);
  }
  return photons;
}

TEST(ParamsTest, TypedAccessorsAndCanonical) {
  AnalysisParams params;
  params.SetDouble("t_start", 1.5);
  params.SetInt("bins", 32);
  params.Set("note", "x");
  EXPECT_DOUBLE_EQ(params.GetDouble("t_start", 0), 1.5);
  EXPECT_EQ(params.GetInt("bins", 0), 32);
  EXPECT_EQ(params.Get("note"), "x");
  EXPECT_EQ(params.GetInt("missing", -7), -7);
  EXPECT_EQ(params.Canonical(), "bins=32;note=x;t_start=1.5");
}

TEST(RegistryTest, StandardRoutinesPresent) {
  auto registry = CreateStandardRegistry();
  auto names = registry->Names();
  EXPECT_EQ(names.size(), 4u);
  EXPECT_NE(registry->Get("imaging"), nullptr);
  EXPECT_NE(registry->Get("lightcurve"), nullptr);
  EXPECT_NE(registry->Get("spectrogram"), nullptr);
  EXPECT_NE(registry->Get("histogram"), nullptr);
  EXPECT_EQ(registry->Get("nonexistent"), nullptr);
}

class CountingRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "user_counting"; }
  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams&) const override {
    AnalysisProduct p;
    p.routine = name();
    p.metadata["count"] = std::to_string(photons.size());
    return p;
  }
  double EstimateWorkUnits(size_t n, const AnalysisParams&) const override {
    return static_cast<double>(n);
  }
};

TEST(RegistryTest, UserSubmittedRoutineRegisters) {
  auto registry = CreateStandardRegistry();
  registry->Register(std::make_unique<CountingRoutine>());
  ASSERT_NE(registry->Get("user_counting"), nullptr);
  auto product = registry->Get("user_counting")->Run(MakePhotons(5), {});
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(product.value().metadata.at("count"), "5");
}

TEST(LightcurveTest, BinsCountsCorrectly) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(1000, 100.0);  // 10/s uniform
  AnalysisParams params;
  params.SetDouble("bin_sec", 10.0);
  auto r = registry->Get("lightcurve")->Run(photons, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().series.has_value());
  const Series& s = *r.value().series;
  ASSERT_EQ(s.y.size(), 10u);
  for (double count : s.y) EXPECT_NEAR(count, 100.0, 1.0);
  EXPECT_FALSE(r.value().rendered.empty());
}

TEST(LightcurveTest, WindowSelection) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(1000, 100.0);
  AnalysisParams params;
  params.SetDouble("t_start", 50.0);
  params.SetDouble("t_end", 60.0);
  auto r = registry->Get("lightcurve")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().metadata.at("photons"), "100");
}

TEST(LightcurveTest, RejectsBadBin) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetDouble("bin_sec", -1.0);
  EXPECT_FALSE(registry->Get("lightcurve")->Run(MakePhotons(10), params).ok());
}

TEST(HistogramTest, TotalCountPreserved) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(5000);
  AnalysisParams params;
  params.SetInt("bins", 32);
  auto r = registry->Get("histogram")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  double total = 0;
  for (double y : r.value().series->y) total += y;
  EXPECT_DOUBLE_EQ(total, 5000.0);
}

TEST(HistogramTest, RejectsBadBins) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetInt("bins", 0);
  EXPECT_FALSE(registry->Get("histogram")->Run(MakePhotons(10), params).ok());
}

TEST(SpectrogramTest, ProducesImageWithAllCounts) {
  auto registry = CreateStandardRegistry();
  rhessi::PhotonList photons = MakePhotons(2000);
  AnalysisParams params;
  params.SetInt("t_bins", 32);
  params.SetInt("e_bins", 16);
  auto r = registry->Get("spectrogram")->Run(photons, params);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().image.has_value());
  const Image& img = *r.value().image;
  EXPECT_EQ(img.width, 32u);
  EXPECT_EQ(img.height, 16u);
  EXPECT_DOUBLE_EQ(img.TotalFlux(), 2000.0);
}

// Every field of a product, compared exactly (doubles by value).
void ExpectSameProduct(const AnalysisProduct& a, const AnalysisProduct& b) {
  EXPECT_EQ(a.routine, b.routine);
  EXPECT_EQ(a.metadata, b.metadata);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.rendered, b.rendered);
  ASSERT_EQ(a.series.has_value(), b.series.has_value());
  if (a.series) {
    EXPECT_EQ(a.series->x, b.series->x);
    EXPECT_EQ(a.series->y, b.series->y);
  }
  ASSERT_EQ(a.image.has_value(), b.image.has_value());
  if (a.image) {
    EXPECT_EQ(a.image->width, b.image->width);
    EXPECT_EQ(a.image->height, b.image->height);
    EXPECT_EQ(a.image->pixels, b.image->pixels);
  }
}

TEST(TimeWindowTest, CutListGivesByteIdenticalProducts) {
  rhessi::TelemetryOptions options;
  options.duration_sec = 300;
  options.flares_per_hour = 40;
  options.seed = 21;
  // Photons as a raw unit stores them: times quantized to microseconds.
  bool time_sorted = false;
  Result<rhessi::PhotonList> decoded = rhessi::DecodePhotons(
      rhessi::EncodePhotons(rhessi::GenerateTelemetry(options).photons),
      &time_sorted);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(time_sorted);
  const rhessi::PhotonList& photons = decoded.value();
  ASSERT_GT(photons.size(), 1000u);
  const double first = photons.front().time_sec;
  const double last = photons.back().time_sec;
  const double mid = photons[photons.size() / 2].time_sec;
  // Windows inside, at photon times, around, before, after and inverted.
  const std::pair<double, double> windows[] = {
      {first + 20.25, first + 95.5}, {mid, mid + 17.0},
      {first, last},                 {first - 10, last + 10},
      {first - 10, first - 1},       {last + 1, last + 10},
      {mid + 5, mid - 5},            {mid, mid}};
  auto registry = CreateStandardRegistry();
  for (const char* routine : {"lightcurve", "spectrogram", "histogram"}) {
    for (const auto& [t0, t1] : windows) {
      SCOPED_TRACE(std::string(routine) + " window " + std::to_string(t0) +
                   ".." + std::to_string(t1));
      AnalysisParams params;
      params.SetDouble("t_start", t0);
      params.SetDouble("t_end", t1);
      rhessi::PhotonList cut = CutToTimeWindow(photons, params);
      EXPECT_LE(cut.size(), photons.size());
      auto whole = registry->Get(routine)->Run(photons, params);
      auto windowed = registry->Get(routine)->Run(cut, params);
      ASSERT_TRUE(whole.ok());
      ASSERT_TRUE(windowed.ok());
      ExpectSameProduct(whole.value(), windowed.value());
    }
  }
  // The cut holds exactly the window's photons.
  AnalysisParams params;
  params.SetDouble("t_start", first + 20.25);
  params.SetDouble("t_end", first + 95.5);
  rhessi::PhotonList cut = CutToTimeWindow(photons, params);
  ASSERT_FALSE(cut.empty());
  EXPECT_EQ(static_cast<int64_t>(cut.size()),
            rhessi::CountInWindow(photons, params.GetDouble("t_start", 0),
                                  params.GetDouble("t_end", 0), 0, 1e9));
}

TEST(ImagingTest, PointSourceReconstruction) {
  // Photons whose arrival phases modulate consistently with a single
  // source; back-projection should produce a peaked image.
  auto registry = CreateStandardRegistry();
  rhessi::TelemetryOptions options;
  options.duration_sec = 40;
  options.background_rate = 200;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 13;
  rhessi::Telemetry t = rhessi::GenerateTelemetry(options);
  AnalysisParams params;
  params.SetInt("pixels", 16);
  auto r = registry->Get("imaging")->Run(t.photons, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().image.has_value());
  EXPECT_EQ(r.value().image->width, 16u);
  EXPECT_GT(r.value().image->MaxPixel(), 0.0);
  EXPECT_FALSE(r.value().rendered.empty());
}

TEST(ImagingTest, CostScalesWithPixels) {
  auto registry = CreateStandardRegistry();
  const AnalysisRoutine* imaging = registry->Get("imaging");
  AnalysisParams small, large;
  small.SetInt("pixels", 16);
  large.SetInt("pixels", 64);
  EXPECT_GT(imaging->EstimateWorkUnits(1000, large),
            10 * imaging->EstimateWorkUnits(1000, small));
}

TEST(ImagingTest, RejectsBadPixelCount) {
  auto registry = CreateStandardRegistry();
  AnalysisParams params;
  params.SetInt("pixels", 100000);
  EXPECT_FALSE(registry->Get("imaging")->Run(MakePhotons(10), params).ok());
}

TEST(RenderTest, ImageRoundTrip) {
  Image img;
  img.width = 8;
  img.height = 4;
  img.pixels.resize(32);
  for (size_t i = 0; i < img.pixels.size(); ++i) {
    img.pixels[i] = static_cast<double>(i);
  }
  auto parsed = ParseRenderedImage(RenderImage(img));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().width, 8u);
  EXPECT_EQ(parsed.value().height, 4u);
  // 8-bit quantization over range [0,31]: error <= range/255.
  for (size_t i = 0; i < img.pixels.size(); ++i) {
    EXPECT_NEAR(parsed.value().pixels[i], img.pixels[i], 31.0 / 255.0 + 1e-9);
  }
}

TEST(RenderTest, ConstantImage) {
  Image img;
  img.width = 4;
  img.height = 4;
  img.pixels.assign(16, 3.0);
  auto parsed = ParseRenderedImage(RenderImage(img));
  ASSERT_TRUE(parsed.ok());
  for (double p : parsed.value().pixels) EXPECT_DOUBLE_EQ(p, 3.0);
}

TEST(RenderTest, SeriesRenders) {
  Series s;
  for (int i = 0; i < 100; ++i) {
    s.x.push_back(i);
    s.y.push_back(std::sin(i * 0.1));
  }
  std::vector<uint8_t> bytes = RenderSeries(s);
  EXPECT_FALSE(bytes.empty());
  auto parsed = ParseRenderedImage(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().width, 256u);
}

TEST(RenderTest, BadBytesRejected) {
  EXPECT_FALSE(ParseRenderedImage({1, 2, 3}).ok());
}

// --- error-bounded approximate aggregates ------------------------------

TEST(ApproxTest, ApproxSumFromPrefixWithinBound) {
  Rng rng(41);
  std::vector<double> signal(512);
  for (auto& v : signal) v = rng.Uniform(0, 50);
  signal[100] = 4000;  // a flare spike the coarse levels must bound
  std::vector<uint8_t> stream = wavelet::EncodeSignalProgressive(signal);

  for (size_t level : {0u, 3u, 6u, 9u}) {
    auto prefix = wavelet::SlicePrefixForLevel(stream, level);
    ASSERT_TRUE(prefix.ok());
    for (auto [lo, hi] : std::initializer_list<std::pair<double, double>>{
             {0.0, 1.0}, {0.25, 0.75}, {0.1953125, 0.1972656}}) {
      auto answer = ApproxSumFromPrefix(prefix.value().data(),
                                        prefix.value().size(), lo, hi);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      size_t lo_bin = static_cast<size_t>(lo * 512.0);
      size_t hi_bin = static_cast<size_t>(std::ceil(hi * 512.0));
      double exact = 0;
      for (size_t i = lo_bin; i < hi_bin; ++i) exact += signal[i];
      EXPECT_LE(std::abs(answer.value().estimate - exact),
                answer.value().error_bound + 1e-6)
          << "level " << level << " range [" << lo << "," << hi << "]";
      EXPECT_EQ(answer.value().bins, hi_bin - lo_bin);
      EXPECT_GT(answer.value().bytes_read, 0u);
    }
  }

  // The full stream answers exactly (up to quantization).
  auto exact_answer =
      ApproxSumFromPrefix(stream.data(), stream.size(), 0.0, 1.0);
  ASSERT_TRUE(exact_answer.ok());
  double total = 0;
  for (double v : signal) total += v;
  EXPECT_NEAR(exact_answer.value().estimate, total, 1e-2);

  // Out-of-range fractions clamp; inverted ranges are errors.
  EXPECT_TRUE(
      ApproxSumFromPrefix(stream.data(), stream.size(), -5.0, 9.0).ok());
  EXPECT_FALSE(
      ApproxSumFromPrefix(stream.data(), stream.size(), 0.8, 0.2).ok());
  // Garbage bytes are a clean error.
  std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(ApproxSumFromPrefix(garbage.data(), garbage.size(), 0, 1).ok());
}

TEST(ApproxTest, ReservoirSamplerEstimatesWithinBars) {
  Rng rng(43);
  ReservoirSampler sampler(/*capacity=*/512, /*seed=*/7);
  double exact_count = 0, exact_sum = 0;
  const size_t n = 50000;
  for (size_t i = 0; i < n; ++i) {
    double position = rng.Uniform(0, 1000);
    double value = rng.Uniform(1, 9);
    sampler.Add(position, value);
    if (position >= 200 && position < 500) {
      exact_count += 1;
      exact_sum += value;
    }
  }
  EXPECT_EQ(sampler.seen(), n);
  EXPECT_EQ(sampler.size(), 512u);

  ApproxAnswer count = sampler.EstimateCountInRange(200, 500);
  EXPECT_GT(count.error_bound, 0);
  EXPECT_LE(std::abs(count.estimate - exact_count), count.error_bound)
      << count.estimate << " vs " << exact_count;

  ApproxAnswer sum = sampler.EstimateSumInRange(200, 500);
  EXPECT_LE(std::abs(sum.estimate - exact_sum), sum.error_bound)
      << sum.estimate << " vs " << exact_sum;

  // The full range is counted exactly: every sampled position matches,
  // so the indicator has zero variance.
  ApproxAnswer all = sampler.EstimateCountInRange(0, 1000);
  EXPECT_DOUBLE_EQ(all.estimate, static_cast<double>(n));
}

TEST(ApproxTest, ReservoirSamplerSmallStreams) {
  // Fewer points than capacity: estimates are exact, bars are zero.
  ReservoirSampler sampler(/*capacity=*/64, /*seed=*/1);
  for (int i = 0; i < 10; ++i) {
    sampler.Add(static_cast<double>(i), 2.0);
  }
  ApproxAnswer count = sampler.EstimateCountInRange(0, 5);
  EXPECT_DOUBLE_EQ(count.estimate, 5.0);
  EXPECT_DOUBLE_EQ(count.error_bound, 0.0);
  ApproxAnswer sum = sampler.EstimateSumInRange(0, 5);
  EXPECT_DOUBLE_EQ(sum.estimate, 10.0);

  // An empty sampler answers zero without dividing by zero.
  ReservoirSampler empty(16, 2);
  EXPECT_DOUBLE_EQ(empty.EstimateCountInRange(0, 1).estimate, 0.0);
}

}  // namespace
}  // namespace hedc::analysis
