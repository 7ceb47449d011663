// Decode fuzzing for raw data units: stored units come back off disk, the
// network and client caches, so RawDataUnit::Unpack and the decoders under
// it (hzip, FITS-lite, the HPH1 photon list) must either reproduce the
// unit exactly or fail with kCorruption — never crash or allocate what
// the input cannot hold — under truncation, bit flips and hostile length
// fields. Every input is seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "archive/compression.h"
#include "archive/fits.h"
#include "core/bytes.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "core/status.h"
#include "rhessi/photon.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::rhessi {
namespace {

constexpr uint64_t kHugeSize = uint64_t{1} << 62;

RawDataUnit MakeUnit(uint64_t seed, double duration_sec) {
  TelemetryOptions options;
  options.duration_sec = duration_sec;
  options.background_rate = 10;
  options.flares_per_hour = 60;
  options.seed = seed;
  RawDataUnit unit;
  unit.unit_id = 42;
  unit.calibration_version = 3;
  unit.photons = GenerateTelemetry(options).photons;
  unit.t_start = unit.photons.front().time_sec;
  unit.t_stop = unit.photons.back().time_sec;
  // What the repository holds is the unit after one round trip (times
  // quantized to microseconds, header times rounded).
  return RawDataUnit::Unpack(unit.Pack()).value();
}

bool SamePhotons(const PhotonList& a, const PhotonList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_sec != b[i].time_sec ||
        a[i].energy_kev != b[i].energy_kev ||
        a[i].detector != b[i].detector || a[i].segment != b[i].segment) {
      return false;
    }
  }
  return true;
}

bool SameUnit(const RawDataUnit& a, const RawDataUnit& b) {
  return a.unit_id == b.unit_id && a.t_start == b.t_start &&
         a.t_stop == b.t_stop &&
         a.calibration_version == b.calibration_version &&
         SamePhotons(a.photons, b.photons);
}

// The only acceptable outcomes of unpacking damaged bytes.
void ExpectOriginalOrCorruption(const std::vector<uint8_t>& bytes,
                                const RawDataUnit& original) {
  Result<RawDataUnit> unit = RawDataUnit::Unpack(bytes);
  if (unit.ok()) {
    EXPECT_TRUE(SameUnit(unit.value(), original));
  } else {
    EXPECT_EQ(unit.status().code(), StatusCode::kCorruption)
        << unit.status().ToString();
  }
}

// The stored forms of one unit: plain FITS-lite, and the hzip form that
// earlier versions of Pack wrote.
std::vector<std::vector<uint8_t>> StoredForms(const RawDataUnit& unit) {
  std::vector<uint8_t> plain = unit.Pack();
  return {plain, archive::Compress(plain)};
}

TEST(RawUnitCodecFuzzTest, TruncationAtEveryByte) {
  RawDataUnit unit = MakeUnit(1, 20);
  ASSERT_GT(unit.photons.size(), 50u);
  for (const std::vector<uint8_t>& stored : StoredForms(unit)) {
    for (size_t size = 0; size < stored.size(); ++size) {
      std::vector<uint8_t> truncated(stored.begin(), stored.begin() + size);
      Result<RawDataUnit> result = RawDataUnit::Unpack(truncated);
      ASSERT_FALSE(result.ok()) << "size " << size;
      ASSERT_EQ(result.status().code(), StatusCode::kCorruption)
          << "size " << size;
    }
  }
}

TEST(RawUnitCodecFuzzTest, SeededBitFlips) {
  RawDataUnit unit = MakeUnit(2, 20);
  Rng rng(0xf1195);
  for (const std::vector<uint8_t>& stored : StoredForms(unit)) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::vector<uint8_t> damaged = stored;
      int flips = 1 + static_cast<int>(rng.UniformInt(0, 2));
      for (int f = 0; f < flips; ++f) {
        size_t pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(damaged.size()) - 1));
        damaged[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
      }
      SCOPED_TRACE(trial);
      ExpectOriginalOrCorruption(damaged, unit);
    }
  }
}

TEST(RawUnitCodecFuzzTest, HugeDeclaredSizesAreCorruption) {
  // An hzip header declaring 2^62 output bytes, with no tokens behind it.
  ByteBuffer hzip;
  hzip.PutU32(0x485a4950);  // "HZIP"
  hzip.PutVarint(kHugeSize);
  EXPECT_EQ(archive::Decompress(hzip.data()).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(RawDataUnit::Unpack(hzip.data()).status().code(),
            StatusCode::kCorruption);

  // A photon list declaring 2^62 photons.
  ByteBuffer photons;
  photons.PutU32(0x48504831);  // "HPH1"
  photons.PutVarint(kHugeSize);
  EXPECT_EQ(DecodePhotons(photons.data()).status().code(),
            StatusCode::kCorruption);

  // A FITS-lite HDU, CRC intact, whose payload declares 2^62 bytes.
  ByteBuffer body;
  body.PutString("PRIMARY");
  body.PutVarint(0);  // no cards
  body.PutVarint(kHugeSize);
  ByteBuffer fits;
  fits.PutU32(0x48465453);  // "HFTS"
  fits.PutU32(1);
  fits.PutVarint(1);
  fits.PutU32(Crc32(body.data()));
  fits.PutVarint(body.size());
  fits.PutBytes(body.data().data(), body.size());
  EXPECT_EQ(archive::FitsFile::Parse(fits.data()).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(RawDataUnit::Unpack(fits.data()).status().code(),
            StatusCode::kCorruption);
}

TEST(RawUnitCodecFuzzTest, HostileHzipTokensAreCorruption) {
  // A back-reference far longer than any the encoder emits, inside a
  // declared size the stream could otherwise produce.
  ByteBuffer long_ref;
  long_ref.PutU32(0x485a4950);
  long_ref.PutVarint(1000);
  long_ref.PutU8(0x00);  // one literal byte
  long_ref.PutVarint(1);
  long_ref.PutU8('x');
  long_ref.PutU8(0x01);  // back-reference: dist 1, len 2^62
  long_ref.PutVarint(1);
  long_ref.PutVarint(kHugeSize);
  EXPECT_EQ(archive::Decompress(long_ref.data()).status().code(),
            StatusCode::kCorruption);

  // A back-reference one byte longer than the encoder's longest match,
  // exactly filling the declared size.
  ByteBuffer over_max;
  over_max.PutU32(0x485a4950);
  over_max.PutVarint(1 + 65537);
  over_max.PutU8(0x00);
  over_max.PutVarint(1);
  over_max.PutU8('x');
  over_max.PutU8(0x01);
  over_max.PutVarint(1);
  over_max.PutVarint(65537);
  EXPECT_EQ(archive::Decompress(over_max.data()).status().code(),
            StatusCode::kCorruption);

  // Tokens that overrun the declared size.
  ByteBuffer overrun;
  overrun.PutU32(0x485a4950);
  overrun.PutVarint(2);
  overrun.PutU8(0x00);
  overrun.PutVarint(3);
  overrun.PutBytes(reinterpret_cast<const uint8_t*>("abc"), 3);
  EXPECT_EQ(archive::Decompress(overrun.data()).status().code(),
            StatusCode::kCorruption);
}

// Counts on both sides of the decoder's switch from whole-photon blocks
// to field-checked reads of the last few photons.
TEST(RawUnitCodecFuzzTest, SmallPhotonCountsRoundTrip) {
  PhotonList all = MakeUnit(3, 20).photons;
  ASSERT_GE(all.size(), 7u);
  for (size_t n : {0, 1, 2, 7}) {
    SCOPED_TRACE(n);
    RawDataUnit unit;
    unit.unit_id = 9;
    unit.photons.assign(all.begin(), all.begin() + n);
    Result<RawDataUnit> restored = RawDataUnit::Unpack(unit.Pack());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(SamePhotons(restored.value().photons, unit.photons));
    EXPECT_TRUE(restored.value().time_sorted);

    std::vector<uint8_t> encoded = EncodePhotons(unit.photons);
    for (size_t size = 0; size < encoded.size(); ++size) {
      std::vector<uint8_t> truncated(encoded.begin(), encoded.begin() + size);
      EXPECT_EQ(DecodePhotons(truncated).status().code(),
                StatusCode::kCorruption)
          << "size " << size;
    }
  }
}

// Ten-byte varints (the largest) and negative time deltas, in the block
// loop and in the checked tail.
TEST(RawUnitCodecFuzzTest, ExtremeFieldsRoundTrip) {
  PhotonList photons;
  for (int i = 0; i < 12; ++i) {
    PhotonEvent p;
    p.time_sec = (i % 2 == 0 ? 4e12 : -4e12) + i;
    p.energy_kev = i % 3 == 0 ? 1e15f : 3.5f;
    p.detector = static_cast<uint8_t>(i % kNumCollimators);
    p.segment = static_cast<uint8_t>(i % 2);
    photons.push_back(p);
  }
  std::vector<uint8_t> encoded = EncodePhotons(photons);
  bool time_sorted = true;
  Result<PhotonList> decoded = DecodePhotons(encoded, &time_sorted);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(time_sorted);
  ASSERT_EQ(decoded.value().size(), photons.size());
  for (size_t i = 0; i < photons.size(); ++i) {
    double micros =
        static_cast<double>(std::llround(photons[i].time_sec * 1e6));
    EXPECT_EQ(decoded.value()[i].time_sec, micros * 1e-6);
    EXPECT_EQ(decoded.value()[i].energy_kev,
              static_cast<float>(std::llround(
                  static_cast<double>(photons[i].energy_kev) * 10.0)) /
                  10.0f);
    EXPECT_EQ(decoded.value()[i].detector, photons[i].detector);
    EXPECT_EQ(decoded.value()[i].segment, photons[i].segment);
  }
  for (size_t size = 0; size < encoded.size(); ++size) {
    std::vector<uint8_t> truncated(encoded.begin(), encoded.begin() + size);
    EXPECT_EQ(DecodePhotons(truncated).status().code(),
              StatusCode::kCorruption);
  }
}

// A single backwards step anywhere, in the block loop or the checked
// tail, clears the sorted flag.
TEST(RawUnitCodecFuzzTest, TimeSortedReportsEveryNegativeDelta) {
  PhotonList sorted;
  for (int i = 0; i < 30; ++i) {
    sorted.push_back(PhotonEvent{1.0 + 0.001 * i, 10.0f, 0, 0});
  }
  bool time_sorted = false;
  ASSERT_TRUE(DecodePhotons(EncodePhotons(sorted), &time_sorted).ok());
  EXPECT_TRUE(time_sorted);
  for (size_t k = 1; k < sorted.size(); ++k) {
    PhotonList photons = sorted;
    photons[k].time_sec = photons[k - 1].time_sec - 0.0005;
    time_sorted = true;
    ASSERT_TRUE(DecodePhotons(EncodePhotons(photons), &time_sorted).ok());
    EXPECT_FALSE(time_sorted) << "backwards step at " << k;
  }
}

// A varint whose 10th byte carries more than the 64th bit, both where the
// decoder reads whole-photon blocks and where it reads the checked tail.
TEST(RawUnitCodecFuzzTest, VarintOverflowIsCorruption) {
  for (size_t good_photons : {0, 10}) {
    ByteBuffer bytes;
    bytes.PutU32(0x48504831);
    bytes.PutVarint(good_photons + 1);
    for (size_t i = 0; i < good_photons; ++i) {
      bytes.PutSignedVarint(1);
      bytes.PutVarint(100);
      bytes.PutU8(0);
    }
    for (int i = 0; i < 9; ++i) bytes.PutU8(0xff);
    bytes.PutU8(0x02);  // overflows: only bit 63 is left
    bytes.PutVarint(100);
    bytes.PutU8(0);
    // With padding the bad photon lies in a block; without, in the tail.
    for (size_t pad : {0, 32}) {
      std::vector<uint8_t> input = bytes.data();
      input.resize(input.size() + pad, 0);
      SCOPED_TRACE(testing::Message() << good_photons << " " << pad);
      EXPECT_EQ(DecodePhotons(input).status().code(),
                StatusCode::kCorruption);
    }
  }
}

TEST(RawUnitCodecFuzzTest, CountBeyondPayloadIsCorruption) {
  // Ten photons need at least 30 bytes.
  ByteBuffer bytes;
  bytes.PutU32(0x48504831);
  bytes.PutVarint(10);
  for (int i = 0; i < 29; ++i) bytes.PutU8(0);
  EXPECT_EQ(DecodePhotons(bytes.data()).status().code(),
            StatusCode::kCorruption);
}

TEST(RawUnitCodecFuzzTest, HzipFormDecodesLikePlainForm) {
  for (uint64_t seed : {4, 5}) {
    RawDataUnit unit = MakeUnit(seed, 60);
    std::vector<uint8_t> legacy =
        archive::Compress(unit.ToFits().Serialize());
    ASSERT_TRUE(archive::IsCompressed(legacy));
    Result<RawDataUnit> from_legacy = RawDataUnit::Unpack(legacy);
    Result<RawDataUnit> from_plain = RawDataUnit::Unpack(unit.Pack());
    ASSERT_TRUE(from_legacy.ok()) << from_legacy.status().ToString();
    ASSERT_TRUE(from_plain.ok()) << from_plain.status().ToString();
    EXPECT_TRUE(SameUnit(from_legacy.value(), from_plain.value()));
    EXPECT_TRUE(SameUnit(from_plain.value(), unit));
    EXPECT_EQ(from_legacy.value().time_sorted,
              from_plain.value().time_sorted);
  }
}

}  // namespace
}  // namespace hedc::rhessi
