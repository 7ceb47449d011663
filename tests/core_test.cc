// Unit tests for src/core: status, strings, bytes, crc, rng, config,
// clocks, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/bytes.h"
#include "core/clock.h"
#include "core/config.h"
#include "core/content_hash.h"
#include "core/crc32.h"
#include "core/ids.h"
#include "core/rng.h"
#include "core/status.h"
#include "core/strings.h"
#include "core/thread_pool.h"

namespace hedc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("tuple 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: tuple 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(9), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Timeout("idl server"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  EXPECT_EQ(r.value_or(9), 9);
}

Status FailingHelper() { return Status::Corruption("boom"); }

Status UsesReturnIfError() {
  HEDC_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kCorruption);
}

Result<int> Doubler(Result<int> in) {
  HEDC_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturn) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("hedc"), "HEDC");
  EXPECT_TRUE(EqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(EqualsIgnoreCase("WHERE", "wher"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hle_12", "hle_"));
  EXPECT_FALSE(StartsWith("h", "hle_"));
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64(" 42 ", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5e2", &v));
  EXPECT_DOUBLE_EQ(v, 350.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteBuffer buf;
  buf.PutU8(0xab);
  buf.PutU32(0xdeadbeef);
  buf.PutI64(-123456789);
  buf.PutF64(3.25);
  ByteReader r(buf.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(i64, -123456789);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTrip) {
  ByteBuffer buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ull << 40,
                             ~0ull};
  for (uint64_t v : values) buf.PutVarint(v);
  ByteReader r(buf.data());
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BytesTest, SignedVarintRoundTrip) {
  ByteBuffer buf;
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : values) buf.PutSignedVarint(v);
  ByteReader r(buf.data());
  for (int64_t v : values) {
    int64_t got;
    ASSERT_TRUE(r.GetSignedVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(BytesTest, StringRoundTrip) {
  ByteBuffer buf;
  buf.PutString("hello");
  buf.PutString("");
  ByteReader r(buf.data());
  std::string a, b;
  ASSERT_TRUE(r.GetString(&a).ok());
  ASSERT_TRUE(r.GetString(&b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(BytesTest, TruncationIsCorruption) {
  ByteBuffer buf;
  buf.PutU32(7);
  ByteReader r(buf.data());
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  ByteBuffer buf;
  buf.PutVarint(100);  // claims 100 bytes, provides none
  ByteReader r(buf.data());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (standard check value).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(Crc32Test, DetectsChange) {
  std::vector<uint8_t> data(100, 7);
  uint32_t base = Crc32(data);
  data[50] ^= 1;
  EXPECT_NE(Crc32(data), base);
}

// Bitwise CRC-32 (reflected IEEE polynomial), one byte at a time: the
// definition the table-driven Crc32 must reproduce.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng->Next());
  return bytes;
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  Rng rng(0xc4c32);
  std::vector<uint8_t> buffer = RandomBytes(&rng, 256 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 256; ++n) {
      uint32_t seed = static_cast<uint32_t>(rng.Next());
      const uint8_t* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, n, seed), ReferenceCrc32(p, n, seed))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnOneMegabyte) {
  Rng rng(77);
  std::vector<uint8_t> buffer = RandomBytes(&rng, 1 << 20);
  EXPECT_EQ(Crc32(buffer), ReferenceCrc32(buffer.data(), buffer.size(), 0));
  EXPECT_EQ(Crc32(buffer.data() + 3, buffer.size() - 5, 0x1234567u),
            ReferenceCrc32(buffer.data() + 3, buffer.size() - 5, 0x1234567u));
}

TEST(Crc32Test, ChainedCallsEqualOneCall) {
  Rng rng(5);
  std::vector<uint8_t> buffer = RandomBytes(&rng, 4096);
  const uint32_t whole = Crc32(buffer);
  for (int trial = 0; trial < 200; ++trial) {
    // Split at up to three random points; each call seeds the next.
    size_t cuts[3];
    for (size_t& cut : cuts) {
      cut = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(buffer.size())));
    }
    std::sort(std::begin(cuts), std::end(cuts));
    uint32_t crc = 0;
    size_t start = 0;
    for (size_t cut : cuts) {
      crc = Crc32(buffer.data() + start, cut - start, crc);
      start = cut;
    }
    crc = Crc32(buffer.data() + start, buffer.size() - start, crc);
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, PoissonMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(ConfigTest, ParseAndAccess) {
  auto r = Config::Parse(
      "# comment\n"
      "archive.root = /data/hedc\n"
      "pool.size = 8\n"
      "wavelet.enabled = true\n"
      "threshold = 2.5\n");
  ASSERT_TRUE(r.ok());
  const Config& c = r.value();
  EXPECT_EQ(c.GetString("archive.root"), "/data/hedc");
  EXPECT_EQ(c.GetInt("pool.size"), 8);
  EXPECT_TRUE(c.GetBool("wavelet.enabled"));
  EXPECT_DOUBLE_EQ(c.GetDouble("threshold"), 2.5);
  EXPECT_EQ(c.GetString("missing", "dflt"), "dflt");
}

TEST(ConfigTest, RejectsMalformedLine) {
  EXPECT_FALSE(Config::Parse("novalue\n").ok());
  EXPECT_FALSE(Config::Parse("= x\n").ok());
}

TEST(ConfigTest, RoundTrip) {
  Config c;
  c.Set("a", "1");
  c.Set("b", "two");
  auto parsed = Config::Parse(c.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().GetString("b"), "two");
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.SleepFor(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.Set(1000);
  EXPECT_EQ(clock.Now(), 1000);
}

TEST(ClockTest, RealClockMonotonic) {
  RealClock* clock = RealClock::Instance();
  Micros a = clock->Now();
  Micros b = clock->Now();
  EXPECT_LE(a, b);
}

TEST(IdGeneratorTest, MonotonicAndAdvancable) {
  IdGenerator gen(10);
  EXPECT_EQ(gen.Next(), 10);
  EXPECT_EQ(gen.Next(), 11);
  gen.AdvancePast(100);
  EXPECT_EQ(gen.Next(), 101);
  gen.AdvancePast(5);  // no-op, already past
  EXPECT_EQ(gen.Next(), 102);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&count] { count.fetch_add(1); }));
    }
  }  // the destructor drains the queue and joins the workers
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.TrySubmit([] {}));
}

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Close();
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Push(9));
}

TEST(ContentHashTest, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(Fnv1a64(""), kFnv1a64OffsetBasis);
  EXPECT_EQ(Fnv1a64(static_cast<const void*>(nullptr), 0),
            kFnv1a64OffsetBasis);
}

TEST(ContentHashTest, KnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("hello"), 0xa430d84680aabd0bull);
}

TEST(ContentHashTest, SeedChainingEqualsConcatenation) {
  // Hashing "xyz" is the same as hashing "x" then chaining "yz" through
  // the seed parameter — the property incremental key-builders rely on.
  uint64_t chained = Fnv1a64("yz", Fnv1a64("x"));
  EXPECT_EQ(chained, Fnv1a64("xyz"));
  EXPECT_EQ(Fnv1a64(std::string_view("yz"), Fnv1a64("x")), chained);
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(ContentHashTest, StringViewAndPointerOverloadsAgree) {
  const char kData[] = "calibration=2;routine=imaging";
  EXPECT_EQ(Fnv1a64(std::string_view(kData)),
            Fnv1a64(static_cast<const void*>(kData), sizeof(kData) - 1));
}

}  // namespace
}  // namespace hedc
