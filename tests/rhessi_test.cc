// Photon codec, telemetry generator, raw units, event detection,
// calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "archive/compression.h"
#include "archive/fits.h"
#include "rhessi/calibration.h"
#include "rhessi/event_detect.h"
#include "rhessi/photon.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::rhessi {
namespace {

TEST(PhotonCodecTest, RoundTrip) {
  PhotonList photons;
  for (int i = 0; i < 1000; ++i) {
    PhotonEvent p;
    p.time_sec = static_cast<double>(i) * 0.001 + 0.0005;
    p.energy_kev = 3.0f + static_cast<float>(i % 500);
    p.detector = static_cast<uint8_t>(i % kNumCollimators);
    p.segment = static_cast<uint8_t>(i % 2);
    photons.push_back(p);
  }
  auto decoded = DecodePhotons(EncodePhotons(photons));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), photons.size());
  for (size_t i = 0; i < photons.size(); ++i) {
    EXPECT_NEAR(decoded.value()[i].time_sec, photons[i].time_sec, 1e-6);
    EXPECT_NEAR(decoded.value()[i].energy_kev, photons[i].energy_kev, 0.06);
    EXPECT_EQ(decoded.value()[i].detector, photons[i].detector);
    EXPECT_EQ(decoded.value()[i].segment, photons[i].segment);
  }
}

TEST(PhotonCodecTest, EmptyList) {
  auto decoded = DecodePhotons(EncodePhotons({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(PhotonCodecTest, BadMagicRejected) {
  EXPECT_FALSE(DecodePhotons({9, 9, 9, 9, 9}).ok());
}

TEST(PhotonTest, CountInWindow) {
  PhotonList photons;
  for (int i = 0; i < 100; ++i) {
    PhotonEvent p;
    p.time_sec = i;
    p.energy_kev = static_cast<float>(10 + i);
    photons.push_back(p);
  }
  EXPECT_EQ(CountInWindow(photons, 10, 20, 0, 1e9), 10);
  EXPECT_EQ(CountInWindow(photons, 0, 100, 50, 60), 10);
  EXPECT_EQ(CountInWindow(photons, 200, 300, 0, 1e9), 0);
}

TEST(TelemetryTest, DeterministicFromSeed) {
  TelemetryOptions options;
  options.duration_sec = 200;
  options.seed = 77;
  Telemetry a = GenerateTelemetry(options);
  Telemetry b = GenerateTelemetry(options);
  ASSERT_EQ(a.photons.size(), b.photons.size());
  EXPECT_EQ(a.truth.size(), b.truth.size());
  for (size_t i = 0; i < std::min<size_t>(a.photons.size(), 100); ++i) {
    EXPECT_DOUBLE_EQ(a.photons[i].time_sec, b.photons[i].time_sec);
  }
}

TEST(TelemetryTest, PhotonsAreTimeSortedAndInRange) {
  TelemetryOptions options;
  options.duration_sec = 600;
  options.seed = 3;
  Telemetry t = GenerateTelemetry(options);
  ASSERT_FALSE(t.photons.empty());
  double prev = -1;
  for (const PhotonEvent& p : t.photons) {
    EXPECT_GE(p.time_sec, prev);
    prev = p.time_sec;
    EXPECT_GE(p.energy_kev, kMinEnergyKev);
    EXPECT_LE(p.energy_kev, kMaxEnergyKev * 1.001);
    EXPECT_LT(p.detector, kNumCollimators);
  }
}

TEST(TelemetryTest, BackgroundRateApproximatelyCorrect) {
  TelemetryOptions options;
  options.duration_sec = 1000;
  options.background_rate = 50;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 11;
  Telemetry t = GenerateTelemetry(options);
  double rate = static_cast<double>(t.photons.size()) / options.duration_sec;
  EXPECT_NEAR(rate, 50.0, 2.5);
}

TEST(TelemetryTest, SaaWindowsAreEmpty) {
  TelemetryOptions options;
  options.duration_sec = 2000;
  options.saa_per_hour = 4;
  options.seed = 5;
  Telemetry t = GenerateTelemetry(options);
  bool found_saa = false;
  for (const InjectedEvent& e : t.truth) {
    if (e.kind != EventKind::kSaaTransit) continue;
    found_saa = true;
    EXPECT_EQ(CountInWindow(t.photons, e.t_start, e.t_end, 0, 1e9), 0)
        << "photons inside SAA window";
  }
  EXPECT_TRUE(found_saa);
}

TEST(TelemetryTest, FlaresRaiseLocalRate) {
  TelemetryOptions options;
  options.duration_sec = 1200;
  options.flares_per_hour = 6;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 9;
  Telemetry t = GenerateTelemetry(options);
  for (const InjectedEvent& e : t.truth) {
    if (e.kind != EventKind::kFlare) continue;
    double mid = e.t_start + (e.t_end - e.t_start) * 0.2;
    double local_rate =
        static_cast<double>(CountInWindow(t.photons, mid - 5, mid + 5, 0,
                                          1e9)) / 10.0;
    EXPECT_GT(local_rate, options.background_rate * 1.5)
        << "flare at " << e.t_start;
  }
}

TEST(RawUnitTest, FitsRoundTrip) {
  TelemetryOptions options;
  options.duration_sec = 60;
  options.seed = 2;
  Telemetry t = GenerateTelemetry(options);
  RawDataUnit unit;
  unit.unit_id = 7;
  unit.t_start = 0;
  unit.t_stop = 60;
  unit.calibration_version = 2;
  unit.photons = t.photons;

  auto restored = RawDataUnit::FromFits(unit.ToFits());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().unit_id, 7);
  EXPECT_EQ(restored.value().calibration_version, 2);
  EXPECT_EQ(restored.value().photons.size(), unit.photons.size());
}

TEST(RawUnitTest, PackWritesPlainFitsLite) {
  TelemetryOptions options;
  options.duration_sec = 120;
  options.seed = 4;
  Telemetry t = GenerateTelemetry(options);
  RawDataUnit unit;
  unit.unit_id = 1;
  unit.photons = t.photons;
  std::vector<uint8_t> packed = unit.Pack();
  // Stored as the FITS-lite bytes themselves, with no hzip layer.
  EXPECT_FALSE(archive::IsCompressed(packed));
  EXPECT_EQ(packed, unit.ToFits().Serialize());
  EXPECT_TRUE(archive::FitsFile::Parse(packed).ok());
  auto restored = RawDataUnit::Unpack(packed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().photons.size(), unit.photons.size());
  EXPECT_TRUE(restored.value().time_sorted);
}

TEST(RawUnitTest, PhotonCountMismatchIsCorruption) {
  RawDataUnit unit;
  unit.unit_id = 1;
  unit.photons.push_back(PhotonEvent{1.0, 10.0f, 0, 0});
  archive::FitsFile fits = unit.ToFits();
  fits.primary().SetCard("NPHOTONS", "999", "");
  EXPECT_EQ(RawDataUnit::FromFits(fits).status().code(),
            StatusCode::kCorruption);
}

TEST(RawUnitTest, SegmentationCutsOnTimeAxis) {
  PhotonList photons;
  for (int i = 0; i < 1050; ++i) {
    photons.push_back(PhotonEvent{static_cast<double>(i), 10.0f, 0, 0});
  }
  auto units = SegmentIntoUnits(photons, 500, 10);
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].unit_id, 10);
  EXPECT_EQ(units[2].unit_id, 12);
  EXPECT_EQ(units[0].photons.size(), 500u);
  EXPECT_EQ(units[2].photons.size(), 50u);
  EXPECT_LE(units[0].t_stop, units[1].t_start);
}

TEST(EventDetectTest, FindsInjectedFlares) {
  TelemetryOptions options;
  options.duration_sec = 3600;
  options.flares_per_hour = 5;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 21;
  Telemetry t = GenerateTelemetry(options);
  auto detected = DetectEvents(t.photons);
  EXPECT_GE(DetectionRecall(t.truth, detected), 0.8);
}

TEST(EventDetectTest, SeparatesGrbsFromFlares) {
  TelemetryOptions options;
  options.duration_sec = 3600;
  options.flares_per_hour = 2;
  options.grbs_per_hour = 4;
  options.saa_per_hour = 0;
  options.seed = 33;
  Telemetry t = GenerateTelemetry(options);
  auto detected = DetectEvents(t.photons);
  int grbs = 0;
  for (const DetectedEvent& d : detected) {
    if (d.kind == EventKind::kGammaRayBurst) ++grbs;
  }
  EXPECT_GT(grbs, 0);
  EXPECT_GE(DetectionRecall(t.truth, detected), 0.6);
}

TEST(EventDetectTest, QuietPeriodsDetected) {
  // Pure background with a dead stretch.
  PhotonList photons;
  Rng rng(1);
  for (double t = 0; t < 2000; t += rng.Exponential(1.0 / 50.0)) {
    if (t > 800 && t < 1400) continue;  // quiet stretch
    photons.push_back(PhotonEvent{t, 20.0f, 0, 0});
  }
  auto detected = DetectEvents(photons);
  bool found_quiet = false;
  for (const DetectedEvent& d : detected) {
    if (d.kind == EventKind::kQuiet && d.t_start >= 700 && d.t_end <= 1500) {
      found_quiet = true;
    }
  }
  EXPECT_TRUE(found_quiet);
}

TEST(EventDetectTest, EmptyInput) {
  EXPECT_TRUE(DetectEvents({}).empty());
}

TEST(CalibrationTest, IdentityByDefault) {
  CalibrationTable table;
  EXPECT_EQ(table.LatestVersion(), 1);
  PhotonList photons = {PhotonEvent{1.0, 100.0f, 3, 0}};
  auto r = table.Recalibrate(photons, 1, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(r.value()[0].energy_kev, 100.0f);
}

TEST(CalibrationTest, RecalibrationAppliesGainAndOffset) {
  CalibrationTable table;
  CalibrationVersion v2;
  v2.version = 2;
  v2.description = "gain drift correction";
  for (int d = 0; d < kNumCollimators; ++d) {
    v2.gain[d] = 1.05;
    v2.offset_kev[d] = 0.5;
  }
  ASSERT_TRUE(table.Register(v2).ok());
  EXPECT_EQ(table.LatestVersion(), 2);

  PhotonList photons = {PhotonEvent{1.0, 100.0f, 0, 0}};
  auto r = table.Recalibrate(photons, 1, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value()[0].energy_kev, 100.0 * 1.05 + 0.5, 1e-3);

  // Recalibrating back is the inverse.
  auto back = table.Recalibrate(r.value(), 2, 1);
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back.value()[0].energy_kev, 100.0, 1e-3);
}

TEST(CalibrationTest, RejectsBadVersions) {
  CalibrationTable table;
  CalibrationVersion dup;
  dup.version = 1;
  EXPECT_EQ(table.Register(dup).code(), StatusCode::kAlreadyExists);
  CalibrationVersion zero_gain;
  zero_gain.version = 3;
  zero_gain.gain[4] = 0;
  EXPECT_EQ(table.Register(zero_gain).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(table.Get(99).status().IsNotFound());
  EXPECT_FALSE(table.Recalibrate({}, 1, 99).ok());
}

}  // namespace
}  // namespace hedc::rhessi
