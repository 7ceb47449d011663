// Decode fuzzing for the wavelet codec: hostile bytes reach DecodeSignal
// straight off the wire (progressive /view prefixes, client caches), so
// every decode path must fail with kCorruption — never crash, hang, or
// allocate unbounded memory — under truncation, bit flips, and crafted
// hostile length fields.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "core/bytes.h"
#include "hwv1_streams.h"
#include "wavelet/codec.h"

namespace hedc::wavelet {
namespace {

// Any decode result is acceptable as long as it is an explicit error or
// a sanely-sized reconstruction; the codec caps padded_len at 2^22 so a
// hostile header can never provoke a multi-GB allocation.
constexpr size_t kMaxReasonableOutput = 1u << 22;

void ExpectSaneDecode(const std::vector<uint8_t>& bytes) {
  auto one_d = DecodeSignal(bytes, 1.0);
  if (one_d.ok()) {
    EXPECT_LE(one_d.value().size(), kMaxReasonableOutput);
  }
  PrefixInfo info;
  auto prefix = DecodeSignalPrefix(bytes.data(), bytes.size(), &info);
  if (prefix.ok()) {
    EXPECT_LE(prefix.value().size(), kMaxReasonableOutput);
    EXPECT_LE(info.coeffs_decoded, info.coeffs_total);
  }
  auto count = CoefficientCount(bytes);
  if (count.ok()) {
    EXPECT_LE(count.value(), kMaxReasonableOutput);
  }
}

std::vector<double> RandomSignal(Rng* rng, size_t n) {
  std::vector<double> signal(n);
  for (auto& v : signal) v = rng->Uniform(-100, 100);
  return signal;
}

TEST(CodecFuzzTest, TruncationAtEveryByte) {
  Rng rng(101);
  std::vector<double> signal = RandomSignal(&rng, 300);
  for (const std::vector<uint8_t>& stream :
       {LegacyStream(1), EncodeSignalProgressive(signal)}) {
    ASSERT_FALSE(stream.empty());
    for (size_t size = 0; size < stream.size(); ++size) {
      std::vector<uint8_t> truncated(stream.begin(),
                                     stream.begin() + size);
      ExpectSaneDecode(truncated);
    }
  }
}

// A truncated legacy (HWV1) stream is corrupt — unlike HWV3 there is no
// byte-prefix contract, so the decoder must refuse rather than return a
// silently short signal.
TEST(CodecFuzzTest, TruncatedLegacyStreamIsCorruption) {
  std::vector<uint8_t> stream = LegacyStream(7);
  ASSERT_FALSE(stream.empty());
  for (size_t cut = 1; cut + 1 < stream.size(); cut += 7) {
    std::vector<uint8_t> truncated(stream.begin(), stream.end() - cut);
    auto decoded = DecodeSignal(truncated, 1.0);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(CodecFuzzTest, BitFlipsNeverCrash) {
  Rng rng(103);
  std::vector<double> signal = RandomSignal(&rng, 400);
  std::vector<std::vector<uint8_t>> streams = {
      LegacyStream(42), EncodeSignalProgressive(signal)};
  for (const auto& stream : streams) {
    ASSERT_FALSE(stream.empty());
    for (int round = 0; round < 400; ++round) {
      std::vector<uint8_t> mutated = stream;
      int flips = static_cast<int>(rng.UniformInt(1, 8));
      for (int f = 0; f < flips; ++f) {
        size_t byte = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[byte] ^= static_cast<uint8_t>(
            1u << rng.UniformInt(0, 7));
      }
      ExpectSaneDecode(mutated);
    }
  }
}

TEST(CodecFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(104);
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> garbage(
        static_cast<size_t>(rng.UniformInt(0, 600)));
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    ExpectSaneDecode(garbage);
  }
}

// Streams whose headers *parse* but declare hostile lengths: giant
// padded_len, coefficient counts exceeding the payload, non-power-of-2
// sizes. The decoder must reject on the header alone — before any
// payload-sized allocation.
TEST(CodecFuzzTest, HostileLengthFieldsRejected) {
  Rng rng(105);
  std::vector<uint8_t> valid = EncodeSignalProgressive(
      RandomSignal(&rng, 128));

  auto craft = [&](uint64_t original, uint64_t padded,
                   uint64_t num_coeffs) {
    ByteBuffer buf;
    buf.PutBytes(valid.data(), 4);  // real magic
    buf.PutVarint(original);
    buf.PutVarint(padded);
    buf.PutF64(1e-6);  // quant_step
    buf.PutF64(1.0);   // retained energy
    buf.PutF64(0.0);   // dropped energy
    buf.PutVarint(num_coeffs);
    buf.PutVarint(1);  // num_levels
    buf.PutVarint(num_coeffs);
    buf.PutVarint(2 * num_coeffs);
    return buf.data();
  };

  // padded_len far past the 2^22 cap: must fail without allocating.
  ExpectSaneDecode(craft(1ull << 40, 1ull << 40, 4));
  EXPECT_FALSE(
      DecodeSignalPrefix(craft(1ull << 40, 1ull << 40, 4)).ok());
  // Non-power-of-two padded_len.
  EXPECT_FALSE(DecodeSignalPrefix(craft(100, 100, 4)).ok());
  // More coefficients than bins.
  EXPECT_FALSE(DecodeSignalPrefix(craft(64, 64, 1 << 20)).ok());
  // original_len larger than padded_len.
  EXPECT_FALSE(DecodeSignalPrefix(craft(256, 64, 4)).ok());

  // The same hostile headers through the format-sniffing entry point.
  for (auto& hostile :
       {craft(1ull << 40, 1ull << 40, 4), craft(100, 100, 4),
        craft(64, 64, 1 << 20)}) {
    auto decoded = DecodeSignal(hostile, 1.0);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// Level tables that lie: counts that do not sum, offsets that run
// backwards, per-level counts exceeding the level's capacity.
TEST(CodecFuzzTest, InconsistentLevelTablesRejected) {
  Rng rng(106);
  std::vector<uint8_t> valid =
      EncodeSignalProgressive(RandomSignal(&rng, 64));

  auto craft = [&](const std::vector<std::pair<uint64_t, uint64_t>>&
                       levels,
                   uint64_t num_coeffs) {
    ByteBuffer buf;
    buf.PutBytes(valid.data(), 4);
    buf.PutVarint(64);   // original_len
    buf.PutVarint(64);   // padded_len
    buf.PutF64(1e-6);
    buf.PutF64(1.0);
    buf.PutF64(0.0);
    buf.PutVarint(num_coeffs);
    buf.PutVarint(levels.size());
    for (auto [count, end] : levels) {
      buf.PutVarint(count);
      buf.PutVarint(end);
    }
    return buf.data();
  };

  // 64 bins => exactly 7 levels; any other count is corrupt.
  EXPECT_FALSE(DecodeSignalPrefix(craft({{1, 2}}, 1)).ok());
  // Level 1 holds one detail coefficient; claiming 50 is corrupt.
  std::vector<std::pair<uint64_t, uint64_t>> overfull(7, {0, 0});
  overfull[0] = {1, 2};
  overfull[1] = {50, 102};
  EXPECT_FALSE(DecodeSignalPrefix(craft(overfull, 51)).ok());
  // Offsets running backwards.
  std::vector<std::pair<uint64_t, uint64_t>> backwards(7, {0, 10});
  backwards[0] = {1, 20};
  backwards[1] = {1, 5};
  EXPECT_FALSE(DecodeSignalPrefix(craft(backwards, 2)).ok());
}

// Sustained random-mutation soak across every decode entry point —
// the long-haul lane for the sanitizer builds.
TEST(CodecFuzzStress, MutationSoak) {
  Rng rng(107);
  std::vector<std::vector<uint8_t>> legacy;
  for (uint64_t seed : kLegacySeeds) {
    legacy.push_back(LegacyStream(seed));
    ASSERT_FALSE(legacy.back().empty());
  }
  for (int round = 0; round < 3000; ++round) {
    size_t n = static_cast<size_t>(rng.UniformInt(1, 700));
    std::vector<double> signal = RandomSignal(&rng, n);
    // Even rounds mutate a fresh HWV3 stream, odd rounds a stored HWV1
    // one.
    std::vector<uint8_t> stream =
        (round % 2 == 0) ? EncodeSignalProgressive(signal)
                         : legacy[static_cast<size_t>(round / 2) % 3];
    // Mutate: truncate, flip, or splice.
    switch (rng.UniformInt(0, 2)) {
      case 0:
        stream.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(stream.size()))));
        break;
      case 1:
        for (int f = 0; f < 16 && !stream.empty(); ++f) {
          stream[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(stream.size()) - 1))] ^=
              static_cast<uint8_t>(rng.UniformInt(1, 255));
        }
        break;
      default:
        if (stream.size() > 8) {
          size_t at = static_cast<size_t>(rng.UniformInt(
              4, static_cast<int64_t>(stream.size()) - 1));
          stream.insert(stream.begin() + static_cast<long>(at),
                        static_cast<uint8_t>(rng.UniformInt(0, 255)));
        }
        break;
    }
    ExpectSaneDecode(stream);
  }
}

}  // namespace
}  // namespace hedc::wavelet
