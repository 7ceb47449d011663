// FITS-lite, hzip, archive backends and the name mapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/routine.h"
#include "archive/archive.h"
#include "archive/compression.h"
#include "archive/fits.h"
#include "archive/name_mapper.h"
#include "core/bytes.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "rhessi/telemetry.h"

namespace hedc::archive {
namespace {

TEST(FitsTest, CardAccessors) {
  FitsHdu hdu;
  hdu.SetCard("TSTART", "12.5", "start time");
  hdu.SetCard("NPHOTONS", "42", "");
  EXPECT_DOUBLE_EQ(hdu.GetRealCard("tstart"), 12.5);  // case-insensitive
  EXPECT_EQ(hdu.GetIntCard("NPHOTONS"), 42);
  EXPECT_EQ(hdu.GetIntCard("MISSING", -1), -1);
  hdu.SetCard("TSTART", "13.0", "updated");
  EXPECT_DOUBLE_EQ(hdu.GetRealCard("TSTART"), 13.0);
  ASSERT_EQ(hdu.cards.size(), 2u);  // update, not duplicate
}

TEST(FitsTest, SerializeParseRoundTrip) {
  FitsFile fits;
  fits.primary().SetCard("TELESCOP", "RHESSI", "instrument");
  FitsHdu& data = fits.AddHdu("PHOTONS");
  data.data = {1, 2, 3, 4, 5};
  data.SetCard("ENCODING", "RAW", "");
  FitsHdu& img = fits.AddHdu("IMAGE");
  img.data.assign(1000, 7);

  auto parsed = FitsFile::Parse(fits.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FitsFile& f = parsed.value();
  ASSERT_EQ(f.hdus().size(), 3u);
  EXPECT_EQ(f.hdus()[0].FindCard("TELESCOP")->value, "RHESSI");
  ASSERT_NE(f.FindHdu("PHOTONS"), nullptr);
  EXPECT_EQ(f.FindHdu("PHOTONS")->data.size(), 5u);
  EXPECT_EQ(f.DataSize(), 1005u);
}

TEST(FitsTest, CorruptionDetected) {
  FitsFile fits;
  fits.primary().SetCard("KEY", "value", "");
  fits.AddHdu("DATA").data.assign(100, 9);
  std::vector<uint8_t> bytes = fits.Serialize();
  bytes[bytes.size() / 2] ^= 0xff;
  EXPECT_EQ(FitsFile::Parse(bytes).status().code(), StatusCode::kCorruption);
}

TEST(FitsTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_FALSE(FitsFile::Parse(bytes).ok());
}

TEST(CompressionTest, RoundTripRandomData) {
  Rng rng(5);
  std::vector<uint8_t> data(10000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  auto restored = Decompress(Compress(data));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), data);
}

TEST(CompressionTest, CompressesRepetitiveData) {
  std::vector<uint8_t> data(100000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i % 16);
  }
  std::vector<uint8_t> compressed = Compress(data);
  EXPECT_LT(compressed.size(), data.size() / 4);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), data);
}

TEST(CompressionTest, EmptyInput) {
  std::vector<uint8_t> empty;
  auto restored = Decompress(Compress(empty));
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value().empty());
}

TEST(CompressionTest, OverlappingBackReference) {
  // Run of a single byte compresses via overlapping references.
  std::vector<uint8_t> data(5000, 0xaa);
  std::vector<uint8_t> compressed = Compress(data);
  EXPECT_LT(compressed.size(), 100u);
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), data);
}

TEST(CompressionTest, IsCompressedDetects) {
  std::vector<uint8_t> data = {1, 2, 3};
  EXPECT_TRUE(IsCompressed(Compress(data)));
  EXPECT_FALSE(IsCompressed(data));
}

TEST(CompressionTest, CorruptStreamRejected) {
  std::vector<uint8_t> compressed = Compress({1, 2, 3, 4, 5});
  compressed.push_back(0x07);  // bad trailing token
  EXPECT_FALSE(Decompress(compressed).ok());
}

class PropertyCompressionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyCompressionTest, RoundTripsStructuredData) {
  Rng rng(GetParam());
  // Mix of runs, repeats and noise, like encoded photon lists.
  std::vector<uint8_t> data;
  while (data.size() < 20000) {
    switch (rng.UniformInt(0, 2)) {
      case 0: {  // run
        uint8_t b = static_cast<uint8_t>(rng.UniformInt(0, 255));
        size_t n = static_cast<size_t>(rng.UniformInt(1, 500));
        data.insert(data.end(), n, b);
        break;
      }
      case 1: {  // repeated motif
        size_t motif_len = static_cast<size_t>(rng.UniformInt(2, 30));
        std::vector<uint8_t> motif(motif_len);
        for (auto& b : motif) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
        int reps = static_cast<int>(rng.UniformInt(2, 20));
        for (int r = 0; r < reps; ++r) {
          data.insert(data.end(), motif.begin(), motif.end());
        }
        break;
      }
      default: {  // noise
        size_t n = static_cast<size_t>(rng.UniformInt(1, 200));
        for (size_t i = 0; i < n; ++i) {
          data.push_back(static_cast<uint8_t>(rng.UniformInt(0, 255)));
        }
      }
    }
  }
  auto restored = Decompress(Compress(data));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyCompressionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99));

// The byte-wise greedy match search Compress used before its word-wise
// one, kept as the reference the current encoder must match byte for byte.
std::vector<uint8_t> ReferenceCompress(const std::vector<uint8_t>& input) {
  constexpr size_t kWindowSize = 64 * 1024;
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxMatch = 1 << 16;
  constexpr size_t kHashBuckets = 1 << 16;
  auto hash_quad = [](const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> 16;
  };
  ByteBuffer out;
  out.PutU32(0x485a4950);  // "HZIP"
  out.PutVarint(input.size());
  std::vector<int64_t> head(kHashBuckets, -1);
  std::vector<int64_t> prev(input.size(), -1);
  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    if (end > literal_start) {
      out.PutU8(0x00);
      out.PutVarint(end - literal_start);
      out.PutBytes(input.data() + literal_start, end - literal_start);
    }
  };
  size_t i = 0;
  while (i < input.size()) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= input.size()) {
      uint32_t h = hash_quad(input.data() + i);
      int64_t candidate = head[h];
      int chain = 0;
      while (candidate >= 0 && chain < 32) {
        size_t dist = i - static_cast<size_t>(candidate);
        if (dist > kWindowSize) break;
        size_t len = 0;
        size_t max_len = std::min(kMaxMatch, input.size() - i);
        const uint8_t* a = input.data() + candidate;
        const uint8_t* b = input.data() + i;
        while (len < max_len && a[len] == b[len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
        }
        candidate = prev[candidate];
        ++chain;
      }
      prev[i] = head[h];
      head[h] = static_cast<int64_t>(i);
    }
    if (best_len >= kMinMatch) {
      flush_literals(i);
      out.PutU8(0x01);
      out.PutVarint(best_dist);
      out.PutVarint(best_len);
      for (size_t j = i + 1; j < i + best_len && j + 4 <= input.size();
           j += 2) {
        uint32_t h = hash_quad(input.data() + j);
        prev[j] = head[h];
        head[h] = static_cast<int64_t>(j);
      }
      i += best_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());
  return std::move(out).TakeData();
}

// Compress emits the reference's bytes, and they decode to the input.
void ExpectSameAsReference(const std::vector<uint8_t>& input,
                           const std::string& what) {
  SCOPED_TRACE(what + ", " + std::to_string(input.size()) + " bytes");
  std::vector<uint8_t> compressed = Compress(input);
  EXPECT_EQ(compressed, ReferenceCompress(input));
  auto restored = Decompress(compressed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), input);
}

TEST(CompressionDifferentialTest, RandomData) {
  Rng rng(7);
  for (int alphabet : {256, 16, 4, 2}) {
    for (size_t size : {1000u, 20000u, 150000u}) {
      std::vector<uint8_t> data(size);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.UniformInt(0, alphabet - 1));
      }
      ExpectSameAsReference(data, "alphabet " + std::to_string(alphabet));
    }
  }
}

TEST(CompressionDifferentialTest, LongZeroRuns) {
  // Longer than the 64 KiB window and than the longest match (65536).
  for (size_t size : {65535u, 65536u, 65537u, 65541u, 140000u, 300000u}) {
    ExpectSameAsReference(std::vector<uint8_t>(size, 0), "zeros");
  }
  // Runs split by markers further apart than the window, and runs whose
  // repeats lie just inside and just outside it.
  std::vector<uint8_t> data(70000, 0);
  data.push_back(1);
  data.insert(data.end(), 70000, 0);
  data.push_back(2);
  data.insert(data.end(), 65536 - 1, 0);
  data.push_back(1);
  data.insert(data.end(), 10, 0);
  ExpectSameAsReference(data, "marked zero runs");
}

TEST(CompressionDifferentialTest, EveryShortLength) {
  Rng rng(11);
  for (size_t len = 0; len <= 40; ++len) {
    std::vector<uint8_t> zeros(len, 0);
    ExpectSameAsReference(zeros, "zeros");
    std::vector<uint8_t> motif(len), noise(len);
    for (size_t k = 0; k < len; ++k) {
      motif[k] = static_cast<uint8_t>("abcab"[k % 5]);
      noise[k] = static_cast<uint8_t>(rng.UniformInt(0, 3));
    }
    ExpectSameAsReference(motif, "motif");
    ExpectSameAsReference(noise, "noise");
  }
}

TEST(CompressionDifferentialTest, StructuredData) {
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    std::vector<uint8_t> data;
    while (data.size() < 100000) {
      size_t n = static_cast<size_t>(rng.UniformInt(1, 3000));
      if (rng.UniformInt(0, 1) == 0) {
        data.insert(data.end(), n, static_cast<uint8_t>(rng.UniformInt(0, 2)));
      } else if (data.size() > n) {
        // Copy an earlier stretch, then change one byte of it.
        size_t from = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(data.size() - n)));
        std::vector<uint8_t> copy(data.begin() + from,
                                  data.begin() + from + n);
        copy[copy.size() / 2] ^= 0x5a;
        data.insert(data.end(), copy.begin(), copy.end());
      }
    }
    ExpectSameAsReference(data, "structured seed " + std::to_string(seed));
  }
}

// The 8-bit pixel plane a rendered product compresses (after its
// GIF-lite header), and that compressed stream.
std::pair<std::vector<uint8_t>, std::vector<uint8_t>> RenderedPlane(
    const std::vector<uint8_t>& rendered) {
  ByteReader reader(rendered);
  uint32_t magic = 0;
  uint64_t width = 0, height = 0, clen = 0;
  double lo = 0, hi = 0;
  EXPECT_TRUE(reader.GetU32(&magic).ok());
  EXPECT_TRUE(reader.GetVarint(&width).ok());
  EXPECT_TRUE(reader.GetVarint(&height).ok());
  EXPECT_TRUE(reader.GetF64(&lo).ok());
  EXPECT_TRUE(reader.GetF64(&hi).ok());
  EXPECT_TRUE(reader.GetVarint(&clen).ok());
  std::vector<uint8_t> compressed(clen);
  EXPECT_TRUE(reader.GetBytes(compressed.data(), clen).ok());
  auto plane = Decompress(compressed);
  EXPECT_TRUE(plane.ok());
  EXPECT_EQ(plane.value().size(), width * height);
  return {plane.value(), compressed};
}

TEST(CompressionDifferentialTest, RenderedRoutinePlanes) {
  rhessi::TelemetryOptions options;
  options.duration_sec = 600;
  options.flares_per_hour = 20;
  options.seed = 31;
  const rhessi::PhotonList photons =
      rhessi::GenerateTelemetry(options).photons;
  ASSERT_GT(photons.size(), 1000u);
  auto registry = analysis::CreateStandardRegistry();
  const std::pair<const char*, std::map<std::string, std::string>>
      routines[] = {{"lightcurve", {{"bin_sec", "1"}}},
                    {"lightcurve", {{"bin_sec", "0.05"}}},
                    {"spectrogram", {{"t_bins", "128"}, {"e_bins", "64"}}},
                    {"histogram", {{"bins", "64"}}}};
  const double first = photons.front().time_sec;
  const double last = photons.back().time_sec;
  for (const auto& [routine, routine_params] : routines) {
    // The whole list, a flare-sized slice and an empty window.
    for (auto [t0, t1] : {std::pair{first, last + 1},
                          std::pair{first + 100, first + 160},
                          std::pair{first - 10, first - 1}}) {
      analysis::AnalysisParams params(routine_params);
      params.SetDouble("t_start", t0);
      params.SetDouble("t_end", t1);
      auto product = registry->Get(routine)->Run(photons, params);
      ASSERT_TRUE(product.ok()) << product.status().ToString();
      auto [plane, compressed] = RenderedPlane(product.value().rendered);
      EXPECT_EQ(compressed, ReferenceCompress(plane)) << routine;
      ExpectSameAsReference(plane, std::string(routine) + " " +
                                       params.Canonical());
    }
  }
}

TEST(DiskArchiveTest, WriteReadDeleteList) {
  DiskArchive disk;
  ASSERT_TRUE(disk.Write("raw/unit_1.fits", {1, 2, 3}).ok());
  ASSERT_TRUE(disk.Write("raw/unit_2.fits", {4, 5}).ok());
  EXPECT_TRUE(disk.Exists("raw/unit_1.fits"));
  EXPECT_EQ(disk.BytesStored(), 5u);
  auto r = disk.Read("raw/unit_1.fits");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_EQ(disk.List().size(), 2u);
  ASSERT_TRUE(disk.Delete("raw/unit_1.fits").ok());
  EXPECT_FALSE(disk.Exists("raw/unit_1.fits"));
  EXPECT_EQ(disk.BytesStored(), 2u);
  EXPECT_TRUE(disk.Read("raw/unit_1.fits").status().IsNotFound());
}

TEST(DiskArchiveTest, OverwriteAdjustsBytes) {
  DiskArchive disk;
  ASSERT_TRUE(disk.Write("f", std::vector<uint8_t>(100, 1)).ok());
  ASSERT_TRUE(disk.Write("f", std::vector<uint8_t>(40, 2)).ok());
  EXPECT_EQ(disk.BytesStored(), 40u);
}

TEST(TapeArchiveTest, MountAndSeekCosts) {
  VirtualClock clock;
  TapeArchive::Costs costs;
  costs.mount_cost = 1000;
  costs.seek_cost = 100;
  costs.read_micros_per_kb = 0;
  TapeArchive tape(std::make_unique<DiskArchive>(), &clock, costs);
  ASSERT_TRUE(tape.Write("old/unit.fits", {1, 2, 3}).ok());
  Micros after_write = clock.Now();
  EXPECT_EQ(after_write, 1100);  // mount + seek
  ASSERT_TRUE(tape.Read("old/unit.fits").ok());
  EXPECT_EQ(clock.Now(), after_write + 100);  // already mounted: seek only
  tape.Unmount();
  ASSERT_TRUE(tape.Read("old/unit.fits").ok());
  EXPECT_EQ(clock.Now(), after_write + 100 + 1100);  // remount
}

TEST(TapeArchiveTest, MissingFileDoesNotChargeMount) {
  VirtualClock clock;
  TapeArchive tape(std::make_unique<DiskArchive>(), &clock);
  EXPECT_TRUE(tape.Read("nope").status().IsNotFound());
  EXPECT_EQ(clock.Now(), 0);
}

TEST(RemoteArchiveTest, OfflineFailsUnavailable) {
  VirtualClock clock;
  RemoteArchive remote(std::make_unique<DiskArchive>(), &clock);
  ASSERT_TRUE(remote.Write("synoptic/x", {1}).ok());
  remote.set_online(false);
  EXPECT_TRUE(remote.Read("synoptic/x").status().IsUnavailable());
  EXPECT_FALSE(remote.Exists("synoptic/x"));
  EXPECT_TRUE(remote.List().empty());
  remote.set_online(true);
  EXPECT_TRUE(remote.Read("synoptic/x").ok());
}

TEST(RemoteArchiveTest, TransferCostScalesWithSize) {
  VirtualClock clock;
  RemoteArchive::Costs costs;
  costs.round_trip = 10;
  costs.transfer_micros_per_kb = 1000;
  RemoteArchive remote(std::make_unique<DiskArchive>(), &clock, costs);
  ASSERT_TRUE(remote.Write("f", std::vector<uint8_t>(2048, 1)).ok());
  Micros t0 = clock.Now();
  ASSERT_TRUE(remote.Read("f").ok());
  EXPECT_EQ(clock.Now() - t0, 10 + 2000);
}

TEST(ArchiveManagerTest, RegisterLookupOnline) {
  ArchiveManager mgr;
  mgr.Register({1, ArchiveType::kDisk, "/raid", true},
               std::make_unique<DiskArchive>());
  mgr.Register({2, ArchiveType::kTape, "/tape", true},
               std::make_unique<TapeArchive>(std::make_unique<DiskArchive>(),
                                             nullptr));
  ASSERT_NE(mgr.Get(1), nullptr);
  EXPECT_EQ(mgr.Get(1)->type(), ArchiveType::kDisk);
  EXPECT_EQ(mgr.Get(99), nullptr);
  ASSERT_TRUE(mgr.SetOnline(1, false).ok());
  EXPECT_EQ(mgr.Get(1), nullptr);  // offline archives are not served
  EXPECT_EQ(mgr.ListArchives().size(), 2u);
  EXPECT_FALSE(mgr.SetOnline(42, true).ok());
}

TEST(ArchiveManagerTest, GetInfoAndOfflineMetadata) {
  ArchiveManager mgr;
  mgr.Register({5, ArchiveType::kRemote, "http://soho", true},
               std::make_unique<DiskArchive>());
  const ArchiveManager::Info* info = mgr.GetInfo(5);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->root, "http://soho");
  EXPECT_EQ(info->type, ArchiveType::kRemote);
  EXPECT_EQ(mgr.GetInfo(99), nullptr);
  // Info remains queryable while the archive itself is not served.
  ASSERT_TRUE(mgr.SetOnline(5, false).ok());
  EXPECT_EQ(mgr.Get(5), nullptr);
  ASSERT_NE(mgr.GetInfo(5), nullptr);
  EXPECT_FALSE(mgr.GetInfo(5)->online);
}

TEST(ArchiveTypeTest, NamesAreStable) {
  EXPECT_STREQ(ArchiveTypeName(ArchiveType::kDisk), "disk");
  EXPECT_STREQ(ArchiveTypeName(ArchiveType::kTape), "tape");
  EXPECT_STREQ(ArchiveTypeName(ArchiveType::kRemote), "remote");
}

class NameMapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Config config;
    config.Set("root.filename", "/hedc");
    config.Set("root.url", "http://hedc.ethz.ch/data");
    mapper_ = std::make_unique<NameMapper>(&db_, config);
    ASSERT_TRUE(mapper_->Init().ok());
    ASSERT_TRUE(mapper_->RegisterArchive(1, "disk", "raid1").ok());
    ASSERT_TRUE(mapper_->RegisterArchive(2, "tape", "tape0").ok());
    ASSERT_TRUE(
        mapper_->AddLocation(100, NameType::kFilename, 1, "hle/2002").ok());
    ASSERT_TRUE(
        mapper_->AddLocation(100, NameType::kUrl, 1, "hle/2002").ok());
  }

  db::Database db_;
  std::unique_ptr<NameMapper> mapper_;
};

TEST_F(NameMapperTest, ResolveConstructsName) {
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, "/hedc/raid1/hle/2002/100");
  EXPECT_EQ(r.value().archive_id, 1);

  auto url = mapper_->Resolve(100, NameType::kUrl);
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().name, "http://hedc.ethz.ch/data/raid1/hle/2002/100");
}

TEST_F(NameMapperTest, LegacyTwoQueryResolveStillAvailable) {
  // §4.3 prices dynamic mapping at two extra indexed queries: the
  // location entry by item id, then its archive by id. No join runs.
  Config config;
  config.Set("root.filename", "/hedc");
  config.Set("name_mapper.cache_capacity", "0");
  NameMapper uncached(&db_, config);
  int64_t q0 = db_.stats().queries.load();
  int64_t j0 = db_.stats().joins.load();
  auto r = uncached.Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().name, "/hedc/raid1/hle/2002/100");
  EXPECT_EQ(db_.stats().queries.load() - q0, 2);
  EXPECT_EQ(db_.stats().joins.load() - j0, 0);
}

TEST_F(NameMapperTest, MissingItemNotFound) {
  EXPECT_TRUE(
      mapper_->Resolve(999, NameType::kFilename).status().IsNotFound());
  EXPECT_TRUE(
      mapper_->Resolve(100, NameType::kTupleId).status().IsNotFound());
}

TEST_F(NameMapperTest, RemountChangesNamesWithoutTouchingItems) {
  // Admin "installs a new disk": only the archive tuple changes.
  ASSERT_TRUE(mapper_->Remount(1, "raid2").ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "/hedc/raid2/hle/2002/100");
}

TEST_F(NameMapperTest, CacheHitElidesBothQueries) {
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());  // warm up
  int64_t q0 = db_.stats().queries.load();
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "/hedc/raid1/hle/2002/100");
  EXPECT_EQ(db_.stats().queries.load() - q0, 0);  // both queries elided
}

TEST_F(NameMapperTest, CacheDisabledWithZeroCapacity) {
  Config config;
  config.Set("root.filename", "/hedc");
  config.Set("name_mapper.cache_capacity", "0");
  NameMapper uncached(&db_, config);
  ASSERT_TRUE(uncached.Resolve(100, NameType::kFilename).ok());
  int64_t q0 = db_.stats().queries.load();
  ASSERT_TRUE(uncached.Resolve(100, NameType::kFilename).ok());
  EXPECT_EQ(db_.stats().queries.load() - q0, 2);  // still the cold path
}

TEST_F(NameMapperTest, RemountInvalidatesWarmCache) {
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());  // cached
  ASSERT_TRUE(mapper_->Remount(1, "raid9").ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "/hedc/raid9/hle/2002/100");
}

TEST_F(NameMapperTest, MoveItemInvalidatesWarmCache) {
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());  // cached
  ASSERT_TRUE(
      mapper_->MoveItem(100, NameType::kFilename, 2, "migrated").ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().archive_id, 2);
  EXPECT_EQ(r.value().name, "/hedc/tape0/migrated/100");
}

TEST_F(NameMapperTest, RelocateArchiveInvalidatesWarmCache) {
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());  // cached
  ASSERT_TRUE(mapper_->RelocateArchive(1, 2).ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().archive_id, 2);
  EXPECT_EQ(r.value().name, "/hedc/tape0/hle/2002/100");
}

TEST_F(NameMapperTest, RemoveLocationsInvalidatesWarmCache) {
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());  // cached
  ASSERT_TRUE(mapper_->RemoveLocations(100).ok());
  EXPECT_TRUE(
      mapper_->Resolve(100, NameType::kFilename).status().IsNotFound());
}

// Concurrent resolvers racing relocations: once a mutator's call has
// returned, no later Resolve may ever see the pre-mutation path (the
// generation check forbids installing a result read before the flip).
TEST_F(NameMapperTest, NameMapperCacheCoherenceStress) {
  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::vector<std::thread> resolvers;
  for (int r = 0; r < 3; ++r) {
    resolvers.emplace_back([this, &stop] {
      while (!stop.load()) {
        auto name = mapper_->Resolve(100, NameType::kFilename);
        ASSERT_TRUE(name.ok());
        // Always some prefix this test has set (or the original).
        EXPECT_TRUE(name.value().name.rfind("/hedc/", 0) == 0);
      }
    });
  }
  for (int round = 1; round <= kRounds; ++round) {
    std::string prefix = "gen" + std::to_string(round);
    ASSERT_TRUE(mapper_->Remount(1, prefix).ok());
    // Remount has returned: its invalidation is complete, so this
    // resolve must observe the new prefix even with resolvers racing.
    auto r = mapper_->Resolve(100, NameType::kFilename);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().name, "/hedc/" + prefix + "/hle/2002/100");
  }
  stop.store(true);
  for (std::thread& t : resolvers) t.join();
}

TEST_F(NameMapperTest, MoveItemToTape) {
  ASSERT_TRUE(
      mapper_->MoveItem(100, NameType::kFilename, 2, "archived/2002").ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().archive_id, 2);
  EXPECT_EQ(r.value().name, "/hedc/tape0/archived/2002/100");
  // URL location untouched.
  auto url = mapper_->Resolve(100, NameType::kUrl);
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().archive_id, 1);
}

TEST_F(NameMapperTest, RelocateArchiveMovesAllEntries) {
  ASSERT_TRUE(mapper_->AddLocation(200, NameType::kFilename, 1, "ana").ok());
  ASSERT_TRUE(mapper_->RelocateArchive(1, 2).ok());
  EXPECT_EQ(mapper_->Resolve(100, NameType::kFilename).value().archive_id, 2);
  EXPECT_EQ(mapper_->Resolve(200, NameType::kFilename).value().archive_id, 2);
}

TEST_F(NameMapperTest, ResolveAllReturnsEveryName) {
  auto r = mapper_->ResolveAll(100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST_F(NameMapperTest, RemoveLocations) {
  ASSERT_TRUE(mapper_->RemoveLocations(100).ok());
  EXPECT_TRUE(
      mapper_->Resolve(100, NameType::kFilename).status().IsNotFound());
}

TEST_F(NameMapperTest, DanglingArchiveIsCorruption) {
  ASSERT_TRUE(mapper_->AddLocation(300, NameType::kFilename, 77, "x").ok());
  EXPECT_EQ(mapper_->Resolve(300, NameType::kFilename).status().code(),
            StatusCode::kCorruption);
}

// --- Edge cases around the moving target: counters must tick for every
// kind of resolution miss (the process registry is shared, so all
// assertions are on deltas).

TEST_F(NameMapperTest, UnknownItemTicksMissCounter) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  int64_t res0 = metrics->GetCounter("namemap.resolutions")->Value();
  int64_t miss0 = metrics->GetCounter("namemap.misses")->Value();
  EXPECT_TRUE(
      mapper_->Resolve(424242, NameType::kFilename).status().IsNotFound());
  EXPECT_EQ(metrics->GetCounter("namemap.resolutions")->Value() - res0, 1);
  EXPECT_EQ(metrics->GetCounter("namemap.misses")->Value() - miss0, 1);
}

TEST_F(NameMapperTest, OfflineArchiveIsUnavailableAndTicksMiss) {
  // Take the disk archive offline behind the mapper's back.
  ASSERT_TRUE(
      db_.Execute("UPDATE archives SET online = FALSE WHERE archive_id = 1")
          .ok());
  int64_t miss0 =
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value();
  auto r = mapper_->Resolve(100, NameType::kFilename);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value() -
          miss0,
      1);
  // Bringing it back online heals resolution without touching items.
  ASSERT_TRUE(
      db_.Execute("UPDATE archives SET online = TRUE WHERE archive_id = 1")
          .ok());
  EXPECT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());
}

TEST_F(NameMapperTest, RemovedArchiveRootIsCorruptionAndTicksMiss) {
  // The archive tuple disappears (a stale root): entries now dangle.
  ASSERT_TRUE(
      db_.Execute("DELETE FROM archives WHERE archive_id = 1").ok());
  int64_t miss0 =
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value();
  EXPECT_EQ(mapper_->Resolve(100, NameType::kFilename).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value() -
          miss0,
      1);
}

TEST_F(NameMapperTest, RelocationToMissingArchiveIsCorruption) {
  // A resolution that worked a moment ago breaks when the item is
  // relocated to an archive that was never registered.
  ASSERT_TRUE(mapper_->Resolve(100, NameType::kFilename).ok());
  ASSERT_TRUE(mapper_->RelocateArchive(1, 99).ok());
  int64_t miss0 =
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value();
  EXPECT_EQ(mapper_->Resolve(100, NameType::kFilename).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("namemap.misses")->Value() -
          miss0,
      1);
  // Relocating onward to a real archive repairs it mid-flight.
  ASSERT_TRUE(mapper_->RelocateArchive(99, 2).ok());
  auto r = mapper_->Resolve(100, NameType::kFilename);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().archive_id, 2);
}

}  // namespace
}  // namespace hedc::archive
