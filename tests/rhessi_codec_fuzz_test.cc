// Decode fuzzing for raw data units: stored units come back off disk, the
// network and client caches, so RawDataUnit::Unpack and the decoders under
// it (FITS-lite, the HPH1 photon list) must either reproduce the unit
// exactly or fail with kCorruption — never crash or allocate what
// the input cannot hold — under truncation, bit flips and hostile length
// fields. UnpackBinned, the one-pass decode that ingest uses, must bin
// exactly what Unpack decodes or fail the same way. Every input is
// seeded, so a failure reproduces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "archive/compression.h"
#include "archive/fits.h"
#include "core/bytes.h"
#include "core/crc32.h"
#include "core/rng.h"
#include "core/status.h"
#include "rhessi/event_detect.h"
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

// One unit as plain FITS-lite, the only stored form, and hzip-compressed,
// a form Unpack does not read: whole or damaged, it is kCorruption.
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
  std::vector<uint8_t> hzip = StoredForms(unit)[1];
  EXPECT_EQ(RawDataUnit::Unpack(hzip).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UnpackBinned(hzip).status().code(), StatusCode::kCorruption);
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

  // A photon at t = 2e6 s: detection bins run from t = 0, so binning
  // these few hundred bytes would allocate 2,000,001 bins. Sorted or
  // not, the unit is corrupt to both decoders; a photon at the bound
  // still bins.
  for (double last : {kMaxPhotonTimeSec, 2e6}) {
    RawDataUnit late;
    late.photons.resize(2);
    late.photons[0].time_sec = 0.5;
    late.photons[1].time_sec = last;
    late.t_start = 0.5;
    late.t_stop = last;
    Result<BinnedUnit> binned = UnpackBinned(late.Pack());
    if (last <= kMaxPhotonTimeSec) {
      ASSERT_TRUE(binned.ok()) << binned.status().ToString();
      EXPECT_EQ(binned.value().detection.counts.size(),
                static_cast<size_t>(last) + 1);
      continue;
    }
    EXPECT_EQ(binned.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(RawDataUnit::Unpack(late.Pack()).status().code(),
              StatusCode::kCorruption);
    std::swap(late.photons[0], late.photons[1]);
    EXPECT_EQ(RawDataUnit::Unpack(late.Pack()).status().code(),
              StatusCode::kCorruption);
  }

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
  // Two forward deltas whose sum wraps past the largest time: the second
  // time is below the first although no delta is negative.
  for (size_t pad : {0, 32}) {
    ByteBuffer bytes;
    bytes.PutU32(0x48504831);
    bytes.PutVarint(2);
    for (int i = 0; i < 2; ++i) {
      bytes.PutSignedVarint(INT64_MAX);
      bytes.PutVarint(100);
      bytes.PutU8(0);
    }
    std::vector<uint8_t> input = bytes.data();
    input.resize(input.size() + pad, 0);
    time_sorted = true;
    Result<PhotonList> wrapped = DecodePhotons(input, &time_sorted);
    ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
    EXPECT_LT(wrapped.value()[1].time_sec, wrapped.value()[0].time_sec);
    EXPECT_FALSE(time_sorted) << "pad " << pad;
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

// The reference for UnpackBinned: the bins as DetectEvents and the view
// build computed them over a decoded photon list, one array update per
// photon.
BinnedUnit ReferenceBins(const RawDataUnit& unit) {
  BinnedUnit out;
  out.unit_id = unit.unit_id;
  out.t_start = unit.t_start;
  out.t_stop = unit.t_stop;
  out.calibration_version = unit.calibration_version;
  out.num_photons = unit.photons.size();
  const PhotonList& photons = unit.photons;
  if (!photons.empty()) {
    DetectionBins& d = out.detection;
    size_t num_bins =
        static_cast<size_t>(std::ceil(photons.back().time_sec / d.bin_sec)) +
        1;
    d.counts.assign(num_bins, 0);
    d.energy_sum.assign(num_bins, 0.0);
    d.hard_counts.assign(num_bins, 0);
    for (const PhotonEvent& p : photons) {
      size_t b = static_cast<size_t>(p.time_sec / d.bin_sec);
      if (b >= num_bins) b = num_bins - 1;
      ++d.counts[b];
      d.energy_sum[b] += p.energy_kev;
      if (p.energy_kev > 100.0) ++d.hard_counts[b];
    }
  }
  double lo = unit.t_start;
  double hi = unit.t_stop + 1e-6;
  if (hi <= lo) return out;
  out.view_counts.assign(kViewBins, 0.0);
  out.view_energies.assign(kViewBins, 0.0);
  double width = (hi - lo) / static_cast<double>(kViewBins);
  for (const PhotonEvent& p : photons) {
    if (p.time_sec < lo || p.time_sec >= hi) continue;
    size_t b = static_cast<size_t>((p.time_sec - lo) / width);
    if (b >= kViewBins) b = kViewBins - 1;
    out.view_counts[b] += 1.0;
    out.view_energies[b] += p.energy_kev;
  }
  return out;
}

// Bit-for-bit equality of doubles (so -0.0 and NaN compare by bits).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectSameBins(const BinnedUnit& actual, const BinnedUnit& expected) {
  EXPECT_EQ(actual.unit_id, expected.unit_id);
  EXPECT_EQ(actual.t_start, expected.t_start);
  EXPECT_EQ(actual.t_stop, expected.t_stop);
  EXPECT_EQ(actual.calibration_version, expected.calibration_version);
  EXPECT_EQ(actual.num_photons, expected.num_photons);
  EXPECT_EQ(actual.detection.counts, expected.detection.counts);
  EXPECT_TRUE(SameBits(actual.detection.energy_sum,
                       expected.detection.energy_sum));
  EXPECT_EQ(actual.detection.hard_counts, expected.detection.hard_counts);
  EXPECT_TRUE(SameBits(actual.view_counts, expected.view_counts));
  EXPECT_TRUE(SameBits(actual.view_energies, expected.view_energies));
}

void ExpectSameEvents(const std::vector<DetectedEvent>& a,
                      const std::vector<DetectedEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].t_start, b[i].t_start);
    EXPECT_EQ(a[i].t_end, b[i].t_end);
    EXPECT_EQ(a[i].peak_rate, b[i].peak_rate);
    EXPECT_EQ(a[i].peak_energy_kev, b[i].peak_energy_kev);
    EXPECT_EQ(a[i].photon_count, b[i].photon_count);
  }
}

// The one-pass decode against Unpack + the list binning + DetectEvents:
// identical bins and events when Unpack gives a time-sorted unit,
// kCorruption when it gives an unsorted one, and Unpack's error code
// otherwise. Returns whether the one-pass decode succeeded.
bool ExpectOnePassMatchesUnpack(const std::vector<uint8_t>& bytes) {
  Result<RawDataUnit> unpacked = RawDataUnit::Unpack(bytes);
  Result<BinnedUnit> binned = UnpackBinned(bytes);
  if (!unpacked.ok()) {
    EXPECT_FALSE(binned.ok());
    if (!binned.ok()) {
      EXPECT_EQ(binned.status().code(), unpacked.status().code());
    }
    return false;
  }
  if (!unpacked.value().time_sorted) {
    EXPECT_EQ(binned.status().code(), StatusCode::kCorruption);
    return false;
  }
  EXPECT_TRUE(binned.ok()) << binned.status().ToString();
  if (!binned.ok()) return false;
  BinnedUnit expected = ReferenceBins(unpacked.value());
  ExpectSameBins(binned.value(), expected);
  ExpectSameBins(BinUnit(unpacked.value()), expected);
  ExpectSameEvents(DetectEventsFromBins(binned.value().detection),
                   DetectEvents(unpacked.value().photons));
  ExpectSameEvents(DetectEventsFromBins(binned.value().detection),
                   DetectEventsFromBins(expected.detection));
  return true;
}

// Seeded sorted photon lists, as stored units: starting at and well after
// t = 0, with header time ranges that match the photons, cut into them,
// and are empty, and with photons on exact bin edges.
TEST(RawUnitCodecFuzzTest, OnePassBinsMatchDecodedUnit) {
  Rng rng(0xb1115);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    RawDataUnit unit;
    unit.unit_id = 7 + trial;
    unit.calibration_version = 1 + trial % 3;
    double t = trial % 3 == 0 ? 0.0 : rng.Uniform(0, 5000);
    size_t n = static_cast<size_t>(rng.UniformInt(0, 4000));
    for (size_t i = 0; i < n; ++i) {
      // Bursts of photons within one bin, gaps of several bins, and
      // times on whole seconds.
      int64_t step = rng.UniformInt(0, 9);
      if (step == 0) {
        t += rng.Uniform(2, 40);
      } else if (step == 1) {
        t = std::floor(t) + 1;
      } else {
        t += rng.Uniform(0, 0.02);
      }
      PhotonEvent p;
      p.time_sec = t;
      p.energy_kev = static_cast<float>(
          rng.UniformInt(0, 3) == 0 ? rng.Uniform(100, 20000)
                                    : rng.Uniform(3, 100));
      p.detector = static_cast<uint8_t>(rng.UniformInt(0, 8));
      p.segment = static_cast<uint8_t>(rng.UniformInt(0, 1));
      unit.photons.push_back(p);
    }
    if (!unit.photons.empty()) {
      unit.t_start = unit.photons.front().time_sec;
      unit.t_stop = unit.photons.back().time_sec;
      switch (trial % 4) {
        case 1:  // a header range inside the photons
          unit.t_start += (unit.t_stop - unit.t_start) / 4;
          unit.t_stop -= (unit.t_stop - unit.t_start) / 4;
          break;
        case 2:  // an empty header range: no view bins
          unit.t_stop = unit.t_start - 1;
          break;
        default:
          break;
      }
    }
    std::vector<uint8_t> packed = unit.Pack();
    EXPECT_TRUE(ExpectOnePassMatchesUnpack(packed));
    std::vector<uint8_t> hzip = archive::Compress(packed);
    EXPECT_FALSE(ExpectOnePassMatchesUnpack(hzip));
    EXPECT_EQ(UnpackBinned(hzip).status().code(), StatusCode::kCorruption);
  }
}

// Damaged photon payloads inside intact containers: bit flips, byte
// overwrites, cuts and insertions. Many still decode, to other photons.
TEST(RawUnitCodecFuzzTest, OnePassMatchesUnpackOnDamagedPayloads) {
  RawDataUnit unit = MakeUnit(6, 20);
  const std::vector<uint8_t> encoded = EncodePhotons(unit.photons);
  Rng rng(0xda7a);
  int decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> damaged = encoded;
    auto pos = [&]() {
      return static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(damaged.size()) - 1));
    };
    switch (trial % 4) {
      case 0:
        damaged[pos()] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
        break;
      case 1:
        damaged[pos()] = static_cast<uint8_t>(rng.UniformInt(0, 255));
        break;
      case 2:
        damaged.resize(pos());
        break;
      default:
        damaged.insert(damaged.begin() + static_cast<std::ptrdiff_t>(pos()),
                       static_cast<uint8_t>(rng.UniformInt(0, 255)));
        break;
    }
    archive::FitsFile fits = unit.ToFits();
    for (archive::FitsHdu& hdu : fits.hdus()) {
      if (hdu.name == "PHOTONS") hdu.data = damaged;
    }
    SCOPED_TRACE(trial);
    if (ExpectOnePassMatchesUnpack(fits.Serialize())) ++decoded;
  }
  // The sorted, decodable damage is a real share of the trials.
  EXPECT_GT(decoded, 100);
}

}  // namespace
}  // namespace hedc::rhessi
