// Haar transforms, progressive codec, density and extent plots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "core/rng.h"
#include "hwv1_streams.h"
#include "wavelet/codec.h"
#include "wavelet/haar.h"
#include "wavelet/views.h"

namespace hedc::wavelet {
namespace {

TEST(HaarTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
}

TEST(HaarTest, ForwardInverseIdentity) {
  Rng rng(1);
  std::vector<double> data(256);
  for (auto& v : data) v = rng.Uniform(-10, 10);
  std::vector<double> original = data;
  HaarForward(&data);
  HaarInverse(&data);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], original[i], 1e-9);
  }
}

TEST(HaarTest, PartialLevels) {
  Rng rng(2);
  std::vector<double> data(64);
  for (auto& v : data) v = rng.Uniform(0, 5);
  std::vector<double> original = data;
  HaarForward(&data, 3);
  HaarInverse(&data, 3);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i], original[i], 1e-9);
  }
}

TEST(HaarTest, EnergyPreserved) {
  Rng rng(3);
  std::vector<double> data(128);
  double energy = 0;
  for (auto& v : data) {
    v = rng.Normal(0, 2);
    energy += v * v;
  }
  HaarForward(&data);
  double coeff_energy = 0;
  for (double c : data) coeff_energy += c * c;
  EXPECT_NEAR(coeff_energy, energy, 1e-6 * energy);
}

TEST(HaarTest, ConstantSignalConcentrates) {
  std::vector<double> data(64, 5.0);
  HaarForward(&data);
  // All energy in the first (scaling) coefficient.
  EXPECT_NEAR(data[0], 5.0 * std::sqrt(64.0), 1e-9);
  for (size_t i = 1; i < data.size(); ++i) EXPECT_NEAR(data[i], 0.0, 1e-9);
}

TEST(HaarTest, PadToPow2) {
  std::vector<double> data = {1, 2, 3};
  size_t original = PadToPow2(&data);
  EXPECT_EQ(original, 3u);
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[3], 3.0);  // step extension

  std::vector<double> empty;
  EXPECT_EQ(PadToPow2(&empty), 0u);
  EXPECT_EQ(empty.size(), 1u);
}

TEST(CodecTest, LosslessAtFullFraction) {
  Rng rng(5);
  std::vector<double> signal(300);  // non-power-of-two
  for (auto& v : signal) v = rng.Uniform(0, 100);
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal);
  auto decoded = DecodeSignal(stream, 1.0);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), signal.size());
  EXPECT_LT(RelativeL2Error(signal, decoded.value()), 1e-4);
}

TEST(CodecTest, ProgressiveErrorDecreasesWithFraction) {
  // Smooth signal + noise: prefix decoding must improve monotonically
  // (within tolerance).
  Rng rng(6);
  std::vector<double> signal(1024);
  for (size_t i = 0; i < signal.size(); ++i) {
    signal[i] = 50 * std::sin(static_cast<double>(i) * 0.02) +
                rng.Normal(0, 1);
  }
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal);
  double prev_err = 1e18;
  for (double fraction : {0.02, 0.1, 0.3, 1.0}) {
    auto decoded = DecodeSignal(stream, fraction);
    ASSERT_TRUE(decoded.ok());
    double err = RelativeL2Error(signal, decoded.value());
    EXPECT_LE(err, prev_err + 1e-9) << "fraction " << fraction;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-3);
}

TEST(CodecTest, BlockySignalIsSparse) {
  std::vector<double> signal(4096);
  for (size_t i = 0; i < signal.size(); ++i) {
    signal[i] = (i / 512) % 2 == 0 ? 100.0 : 0.0;  // blocky
  }
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal);
  // Piecewise-constant signals aligned to dyadic boundaries have only a
  // handful of nonzero Haar coefficients.
  auto n = CoefficientCount(stream);
  ASSERT_TRUE(n.ok());
  EXPECT_LT(n.value(), 16u);
  auto decoded = DecodeSignal(stream, 1.0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_LT(RelativeL2Error(signal, decoded.value()), 1e-6);
}

TEST(CodecTest, ThresholdDropsCoefficients) {
  Rng rng(7);
  std::vector<double> signal(512);
  for (auto& v : signal) v = rng.Normal(0, 1);
  CodecOptions lossy;
  lossy.threshold = 2.0;
  std::vector<uint8_t> full = EncodeSignalProgressive(signal);
  std::vector<uint8_t> thresholded = EncodeSignalProgressive(signal, lossy);
  auto n_full = CoefficientCount(full);
  auto n_thresh = CoefficientCount(thresholded);
  ASSERT_TRUE(n_full.ok());
  ASSERT_TRUE(n_thresh.ok());
  EXPECT_LT(n_thresh.value(), n_full.value());
  EXPECT_LT(thresholded.size(), full.size());
}

TEST(CodecTest, EmptySignal) {
  std::vector<double> signal;
  auto decoded = DecodeSignal(EncodeSignalProgressive(signal));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(CodecTest, BadStreamRejected) {
  EXPECT_FALSE(DecodeSignal({1, 2, 3, 4, 5}).ok());
}

// --- HWV3 progressive streams ------------------------------------------

std::vector<double> FlareLikeSignal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> signal(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = 20.0 + 5.0 * std::sin(static_cast<double>(i) * 0.05) +
                rng.Uniform(-1, 1);
  }
  // Two sharp flares: structure at several resolution levels.
  for (size_t i = n / 4; i < n / 4 + 12 && i < n; ++i) signal[i] += 300.0;
  for (size_t i = 3 * n / 5; i < 3 * n / 5 + 5 && i < n; ++i) {
    signal[i] += 150.0;
  }
  return signal;
}

double L2Residual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  double e = 0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) e += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(e);
}

// The differential guarantee: a full-fidelity decode of the progressive
// stream is bit-identical to the checked-in legacy magnitude-ordered
// stream of the same signal — reordering coefficients never changes the
// reconstructed samples, and stored HWV1 streams keep decoding.
TEST(ProgressiveCodecTest, FullDecodeBitIdenticalToLegacyFormat) {
  for (uint64_t seed : kLegacySeeds) {
    std::vector<double> signal = FlareLikeSignal(300, seed);
    CodecOptions options;
    options.quant_step = 1e-4;
    std::vector<uint8_t> stored = LegacyStream(seed);
    ASSERT_FALSE(stored.empty()) << "missing HWV1 stream for seed " << seed;
    ASSERT_FALSE(IsProgressiveStream(stored));
    auto legacy = DecodeSignal(stored, 1.0);
    auto progressive =
        DecodeSignal(EncodeSignalProgressive(signal, options), 1.0);
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    ASSERT_TRUE(progressive.ok());
    ASSERT_EQ(legacy.value().size(), progressive.value().size());
    for (size_t i = 0; i < legacy.value().size(); ++i) {
      // Bitwise, not approximate: same coefficients, same inverse.
      EXPECT_EQ(legacy.value()[i], progressive.value()[i]) << "bin " << i;
    }
  }
}

TEST(ProgressiveCodecTest, EveryLevelPrefixDecodesWithinBound) {
  std::vector<double> signal = FlareLikeSignal(1000, 3);
  CodecOptions options;
  options.quant_step = 1e-3;
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal, options);
  ASSERT_TRUE(IsProgressiveStream(stream));
  auto levels = ResolutionLevels(stream);
  ASSERT_TRUE(levels.ok());
  EXPECT_EQ(levels.value(), 11u);  // 1024 padded bins

  size_t prev_bytes = 0;
  double prev_error = 1e300;
  for (size_t level = 0; level < levels.value(); ++level) {
    auto bytes = PrefixBytesForLevel(stream, level);
    ASSERT_TRUE(bytes.ok());
    EXPECT_GE(bytes.value(), prev_bytes);  // coarse-to-fine, monotone
    prev_bytes = bytes.value();
    auto prefix = SlicePrefixForLevel(stream, level);
    ASSERT_TRUE(prefix.ok());
    ASSERT_EQ(prefix.value().size(), bytes.value());

    PrefixInfo info;
    auto decoded = DecodeSignalPrefix(prefix.value(), &info);
    ASSERT_TRUE(decoded.ok()) << "level " << level;
    ASSERT_EQ(decoded.value().size(), signal.size());
    EXPECT_GE(info.levels_complete, level + 1);
    double error = L2Residual(signal, decoded.value());
    EXPECT_LE(error, info.L2ErrorBound() + 1e-9) << "level " << level;
    // Refinement never hurts: each level's reconstruction is at least
    // as good as the previous one (up to fp noise).
    EXPECT_LE(error, prev_error + 1e-9);
    prev_error = error;
  }
  // The finest level is the whole stream.
  EXPECT_EQ(PrefixBytesForLevel(stream, levels.value() - 1).value(),
            stream.size());
}

TEST(ProgressiveCodecTest, ArbitraryBytePrefixesDecodeOrFailCleanly) {
  std::vector<double> signal = FlareLikeSignal(256, 9);
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal);
  size_t decodable = 0;
  for (size_t size = 0; size <= stream.size(); ++size) {
    PrefixInfo info;
    auto decoded = DecodeSignalPrefix(stream.data(), size, &info);
    if (!decoded.ok()) continue;  // header incomplete: clean error
    ++decodable;
    EXPECT_LE(L2Residual(signal, decoded.value()),
              info.L2ErrorBound() + 1e-9)
        << "prefix " << size;
  }
  // Everything past the header decodes.
  EXPECT_GT(decodable, stream.size() / 2);
}

TEST(ProgressiveCodecTest, SumErrorBoundCoversRangeSums) {
  std::vector<double> signal = FlareLikeSignal(512, 11);
  std::vector<uint8_t> stream = EncodeSignalProgressive(signal);
  Rng rng(17);
  for (size_t level : {0u, 2u, 4u, 7u}) {
    PrefixInfo info;
    auto prefix = SlicePrefixForLevel(stream, level);
    ASSERT_TRUE(prefix.ok());
    auto decoded = DecodeSignalPrefix(prefix.value(), &info);
    ASSERT_TRUE(decoded.ok());
    for (int round = 0; round < 20; ++round) {
      size_t lo = static_cast<size_t>(rng.UniformInt(0, 511));
      size_t hi = static_cast<size_t>(rng.UniformInt(0, 511));
      if (hi < lo) std::swap(lo, hi);
      double true_sum = 0, approx_sum = 0;
      for (size_t i = lo; i <= hi; ++i) {
        true_sum += signal[i];
        approx_sum += decoded.value()[i];
      }
      EXPECT_LE(std::abs(true_sum - approx_sum),
                info.SumErrorBound(hi - lo + 1) + 1e-9)
          << "level " << level << " range [" << lo << "," << hi << "]";
    }
  }
}

TEST(DensityPlotTest, CountsPerBin) {
  std::vector<std::pair<double, double>> points = {
      {0.5, 0.5}, {0.6, 0.4}, {9.5, 9.5}, {100, 100} /* out of range */};
  DensityPlot plot = BuildDensityPlot(points, 10, 10, 0, 10, 0, 10);
  EXPECT_DOUBLE_EQ(plot.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(plot.At(9, 9), 1.0);
  EXPECT_DOUBLE_EQ(plot.MaxCount(), 2.0);
  double total = 0;
  for (double c : plot.counts) total += c;
  EXPECT_DOUBLE_EQ(total, 3.0);  // out-of-range point dropped
}

TEST(ExtentPlotTest, ClustersAdjacentCells) {
  std::vector<std::pair<double, double>> points;
  // Cluster A spans cells (1,1), (1,2) and (2,2) — connected through the
  // shared edge cell (1,2); cluster B is isolated near (8,8).
  for (int i = 0; i < 4; ++i) {
    points.emplace_back(1.5, 1.5);  // cell (1,1)
    points.emplace_back(1.5, 2.5);  // cell (1,2)
    points.emplace_back(2.5, 2.5);  // cell (2,2)
  }
  for (int i = 0; i < 8; ++i) points.emplace_back(8.5, 8.5);
  auto extents = BuildExtentPlot(points, 10, 0, 10, 0, 10);
  ASSERT_EQ(extents.size(), 2u);
  int64_t total = 0;
  for (const Extent& e : extents) {
    total += e.tuple_count;
    EXPECT_LT(e.x_lo, e.x_hi);
    EXPECT_LT(e.y_lo, e.y_hi);
  }
  EXPECT_EQ(total, 20);
}

TEST(ExtentPlotTest, EmptyInput) {
  EXPECT_TRUE(BuildExtentPlot({}, 8, 0, 1, 0, 1).empty());
}

}  // namespace
}  // namespace hedc::wavelet
