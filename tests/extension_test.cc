// Tests for the "moving target" extensions: the Phoenix-2 second
// instrument, the purge process, and failure-injection around
// relocation.
#include <gtest/gtest.h>

#include "hedc_fixture.h"
#include "rhessi/phoenix.h"

namespace hedc {
namespace {

TEST(PhoenixTest, GeneratorShapesBursts) {
  rhessi::PhoenixOptions options;
  options.num_bursts = 3;
  options.seed = 9;
  rhessi::PhoenixSpectrogram spectrum =
      rhessi::GeneratePhoenixSpectrogram(options);
  ASSERT_EQ(spectrum.intensity.size(),
            options.time_bins * options.freq_channels);
  auto bursts = rhessi::DetectRadioBursts(spectrum);
  EXPECT_GE(bursts.size(), 1u);
  for (const rhessi::RadioBurst& burst : bursts) {
    EXPECT_LT(burst.t_start, burst.t_end);
    EXPECT_GT(burst.peak_intensity, 0);
  }
}

TEST(PhoenixTest, QuietSpectrumHasNoBursts) {
  rhessi::PhoenixOptions options;
  options.num_bursts = 0;
  options.seed = 3;
  rhessi::PhoenixSpectrogram spectrum =
      rhessi::GeneratePhoenixSpectrogram(options);
  EXPECT_TRUE(rhessi::DetectRadioBursts(spectrum).empty());
}

TEST(PhoenixTest, FitsRoundTrip) {
  rhessi::PhoenixOptions options;
  options.time_bins = 32;
  options.freq_channels = 16;
  options.seed = 4;
  rhessi::PhoenixSpectrogram spectrum =
      rhessi::GeneratePhoenixSpectrogram(options);
  spectrum.spectrum_id = 12;
  auto restored =
      rhessi::PhoenixSpectrogram::FromFits(spectrum.ToFits());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().spectrum_id, 12);
  EXPECT_EQ(restored.value().time_bins, 32u);
  ASSERT_EQ(restored.value().intensity.size(), spectrum.intensity.size());
  for (size_t i = 0; i < spectrum.intensity.size(); i += 37) {
    EXPECT_FLOAT_EQ(restored.value().intensity[i], spectrum.intensity[i]);
  }
  // RHESSI raw units are rejected by the Phoenix parser.
  rhessi::RawDataUnit unit;
  unit.unit_id = 1;
  EXPECT_FALSE(rhessi::PhoenixSpectrogram::FromFits(unit.ToFits()).ok());
}

class ExtensionStackTest : public ::testing::Test {
 protected:
  ExtensionStackTest() : stack_(/*seed=*/5) {}

  testing::HedcStack stack_;
};

TEST_F(ExtensionStackTest, PhoenixLoadsIntoExtendedCatalog) {
  rhessi::PhoenixOptions options;
  options.num_bursts = 2;
  options.seed = 8;
  rhessi::PhoenixSpectrogram spectrum =
      rhessi::GeneratePhoenixSpectrogram(options);
  spectrum.spectrum_id = 1;
  auto id = stack_.node.process()->LoadPhoenixSpectrogram(
      stack_.import_session, spectrum);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Domain slice exists; the generic tables are untouched in shape.
  EXPECT_NE(stack_.node.db()->GetTable("phoenix_spectra"), nullptr);
  auto rows = stack_.node.db()->Execute("SELECT COUNT(*) FROM phoenix_spectra");
  EXPECT_EQ(rows.value().rows[0][0].AsInt(), 1);

  // The file is retrievable via the same name mapping.
  EXPECT_TRUE(stack_.node.dm()->io()
                  .ReadItemFile(dm::ProcessLayer::PhoenixItemId(1))
                  .ok());

  // Radio bursts entered the "phoenix" catalog as public HLEs.
  auto catalog = stack_.node.dm()->semantics().GetCatalogByName(
      stack_.import_session, "phoenix");
  ASSERT_TRUE(catalog.ok());
  auto members = stack_.node.dm()->semantics().ListCatalogHles(
      stack_.import_session, catalog.value().catalog_id);
  ASSERT_TRUE(members.ok());
  EXPECT_GE(members.value().size(), 1u);
  // They coexist with the RHESSI events in the same HLE table.
  auto types = stack_.node.db()->Execute(
      "SELECT COUNT(*) FROM hle WHERE event_type = 'radio_burst'");
  EXPECT_GE(types.value().rows[0][0].AsInt(), 1);
}

TEST_F(ExtensionStackTest, PurgeRemovesStalePrivateAnalyses) {
  dm::Session alice = stack_.Login("alice", "pw-a", "10.0.0.1");
  ASSERT_FALSE(stack_.hle_ids.empty());
  // Two old private analyses, one public, one fresh private.
  auto make_ana = [&](double created, bool is_public,
                      const std::string& params) {
    dm::AnaRecord ana;
    ana.hle_id = stack_.hle_ids[0];
    ana.routine = "lightcurve";
    ana.parameters = params;
    ana.status = "done";
    ana.is_public = is_public;
    ana.created_time = created;
    return stack_.node.dm()->semantics().CreateAna(alice, ana).value();
  };
  int64_t old_private_1 = make_ana(10, false, "a=1");
  int64_t old_private_2 = make_ana(20, false, "a=2");
  int64_t old_public = make_ana(15, true, "a=3");
  int64_t fresh_private = make_ana(5000, false, "a=4");

  // Non-super users may not purge.
  EXPECT_TRUE(stack_.node.process()->PurgeStaleAnalyses(alice, 1000)
                  .status()
                  .IsPermissionDenied());

  auto purged =
      stack_.node.process()->PurgeStaleAnalyses(stack_.import_session, 1000);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  EXPECT_EQ(purged.value(), 2);

  EXPECT_TRUE(stack_.node.dm()->semantics()
                  .GetAna(alice, old_private_1)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(stack_.node.dm()->semantics()
                  .GetAna(alice, old_private_2)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      stack_.node.dm()->semantics().GetAna(alice, old_public).ok());
  EXPECT_TRUE(
      stack_.node.dm()->semantics().GetAna(alice, fresh_private).ok());
}

TEST_F(ExtensionStackTest, RelocationCompensatesOnOfflineTarget) {
  // Add a tape archive, then take it offline mid-batch: the second item's
  // copy fails and the first is compensated back.
  stack_.node.archives()->Register(
      {2, archive::ArchiveType::kDisk, "tape0", true},
      std::make_unique<archive::DiskArchive>());
  ASSERT_TRUE(stack_.node.mapper()->RegisterArchive(2, "tape", "tape0").ok());

  // Sanity: unit 1 is on archive 1.
  auto before =
      stack_.node.mapper()->Resolve(1, archive::NameType::kFilename);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().archive_id, 1);

  // Batch with a bogus item id in the middle -> failure after the first
  // item moved; compensation must restore it.
  Status s = stack_.node.process()->RelocateItems({1, 987654321}, 1, 2, "cold");
  EXPECT_FALSE(s.ok());
  auto after = stack_.node.mapper()->Resolve(1, archive::NameType::kFilename);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().archive_id, 1);  // compensated back
  EXPECT_TRUE(stack_.node.dm()->io().ReadItemFile(1).ok());
}

}  // namespace
}  // namespace hedc
