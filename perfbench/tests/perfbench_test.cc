// Tests of the benchmark's own code: percentile selection, registry
// counter deltas, the HTTP response reader, the response checks and the
// self-time computation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checks.h"
#include "core/metrics.h"
#include "http_client.h"
#include "stack.h"
#include "stats.h"
#include "trace.h"
#include "wavelet/codec.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(QuantileOf(OneTo(100), 0.5), 50);
  EXPECT_EQ(QuantileOf(OneTo(100), 0.99), 99);
  EXPECT_EQ(QuantileOf(OneTo(1), 0.99), 1);
  EXPECT_EQ(QuantileOf({}, 0.5), 0);
}

TEST(PercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentileFor(100000, 0.999), 0.999);
  EXPECT_EQ(TailPercentileFor(10000, 0.999), 0.999);
  EXPECT_EQ(TailPercentileFor(9999, 0.999), 0.99);
  EXPECT_EQ(TailPercentileFor(1000, 0.99), 0.99);
  EXPECT_EQ(TailPercentileFor(999, 0.99), 0.9);
  EXPECT_EQ(TailPercentileFor(100, 0.99), 0.9);
  EXPECT_EQ(TailPercentileFor(99, 0.99), 0.5);
  EXPECT_EQ(TailPercentileFor(5, 0.99), 0.5);
  // Never above the percentile asked for.
  EXPECT_EQ(TailPercentileFor(1000000, 0.9), 0.9);
}

TEST(PercentileTest, TailReportsPercentileUsedAndCount) {
  Quantile q = Tail(OneTo(500), 0.99);
  EXPECT_EQ(q.p, 0.9);
  EXPECT_EQ(q.value, 450);
  EXPECT_EQ(q.n, 500u);
  EXPECT_EQ(Median(OneTo(9)).value, 5);
}

TEST(CounterDeltaTest, DeltasCoverSeriesRegisteredLater) {
  hedc::MetricsRegistry registry;
  registry.GetCounter("a")->Add(5);
  registry.GetHistogram("h")->Observe(100);
  CounterSnapshot before = TakeSnapshot(registry);
  registry.GetCounter("a")->Add(3);
  registry.GetCounter("b")->Add(2);  // first seen inside the window
  registry.GetHistogram("h")->Observe(100);
  registry.GetHistogram("h")->Observe(300);
  CounterSnapshot d = Delta(before, TakeSnapshot(registry));
  EXPECT_EQ(ValueOr0(d, "a"), 3);
  EXPECT_EQ(ValueOr0(d, "b"), 2);
  EXPECT_EQ(ValueOr0(d, "h.count"), 2);
  EXPECT_EQ(ValueOr0(d, "h.sum"), 400);
  EXPECT_EQ(ValueOr0(d, "missing"), 0);
  EXPECT_EQ(Ratio(1, 0), 0);
  EXPECT_EQ(Ratio(1, 4), 0.25);
}

TEST(HttpReaderTest, ParsesPipelinedResponsesIncrementally) {
  std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n"
      "Connection: keep-alive\r\nSet-Cookie: hedc_session=tok_1_2\r\n\r\n"
      "hello"
      "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"
      "Connection: close\r\n\r\n";
  HttpReply reply;
  size_t consumed = 0;
  // Every strict prefix of the first response needs more bytes.
  size_t first_len = wire.find("HTTP/1.1 404");
  for (size_t n = 0; n < first_len; ++n) {
    ASSERT_EQ(ParseHttpResponse(wire.data(), n, &reply, &consumed),
              ReadResult::kNeedMore)
        << n;
  }
  ASSERT_EQ(ParseHttpResponse(wire.data(), wire.size(), &reply, &consumed),
            ReadResult::kOk);
  EXPECT_EQ(consumed, first_len);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "text/html");
  EXPECT_EQ(reply.body, "hello");
  EXPECT_TRUE(reply.keep_alive);
  EXPECT_EQ(reply.set_cookies["hedc_session"], "tok_1_2");

  std::string rest = wire.substr(consumed);
  ASSERT_EQ(ParseHttpResponse(rest.data(), rest.size(), &reply, &consumed),
            ReadResult::kOk);
  EXPECT_EQ(reply.status, 404);
  EXPECT_EQ(reply.body, "");
  EXPECT_FALSE(reply.keep_alive);
  EXPECT_EQ(consumed, rest.size());
}

TEST(HttpReaderTest, BinaryBodyKeepsEveryByte) {
  std::string body("\0\r\n\r\n\xff", 6);
  std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\n" + body;
  HttpReply reply;
  size_t consumed = 0;
  ASSERT_EQ(ParseHttpResponse(wire.data(), wire.size(), &reply, &consumed),
            ReadResult::kOk);
  EXPECT_EQ(reply.body, body);
}

TEST(HttpReaderTest, RejectsMalformedResponses) {
  HttpReply reply;
  size_t consumed = 0;
  for (std::string wire :
       {"HTTP/1.1 200 OK\r\n\r\n",                      // no length
        "HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",  // bad code
        "SPDY/9 200 OK\r\nContent-Length: 0\r\n\r\n",    // bad version
        "HTTP/1.1 200 OK\r\nno colon\r\nContent-Length: 0\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"}) {
    EXPECT_EQ(ParseHttpResponse(wire.data(), wire.size(), &reply, &consumed),
              ReadResult::kBad)
        << wire;
  }
}

TEST(ChecksTest, HlePageCountsAnalysisRows) {
  std::string page =
      "<h2>HLE 7 (flare)</h2>"
      "<div class='ana'><a href='/ana?id=1'>lightcurve</a> "
      "<img src='/image?item=2000000001' width='128'></div>"
      "<div class='ana'><a href='/ana?id=2'>histogram</a> "
      "<img src='/image?item=2000000002' width='128'></div>";
  EXPECT_TRUE(CheckHlePage(200, page, 7, 2));
  EXPECT_FALSE(CheckHlePage(200, page, 7, 3));
  EXPECT_FALSE(CheckHlePage(200, page, 8, 2));
  EXPECT_FALSE(CheckHlePage(404, page, 7, 2));
  EXPECT_EQ(IdsAfter(page, "/image?item="),
            (std::vector<int64_t>{2000000001, 2000000002}));
  EXPECT_EQ(IdsAfter(page, "/ana?id="), (std::vector<int64_t>{1, 2}));
}

TEST(ChecksTest, ImageMustMatchArchivedBytes) {
  std::string bytes("GIF\0data", 8);
  uint64_t hash = Fnv1a(bytes);
  EXPECT_TRUE(CheckImage(200, bytes, bytes.size(), hash));
  std::string flipped = bytes;
  flipped[5] ^= 1;
  EXPECT_FALSE(CheckImage(200, flipped, bytes.size(), hash));
  EXPECT_FALSE(CheckImage(200, bytes.substr(1), bytes.size(), hash));
  EXPECT_FALSE(CheckImage(404, bytes, bytes.size(), hash));
}

TEST(ChecksTest, ViewPrefixMustDecode) {
  std::vector<double> signal(1024);
  for (size_t i = 0; i < signal.size(); ++i) signal[i] = (i * 37) % 101;
  std::vector<uint8_t> stream = hedc::wavelet::EncodeSignalProgressive(signal);
  std::vector<uint8_t> prefix =
      hedc::wavelet::SlicePrefixForLevel(stream, 2).value();
  std::string body(prefix.begin(), prefix.end());
  EXPECT_TRUE(CheckViewPrefix(200, body, 2, body.size(), Fnv1a(body)));
  // Right size and hash, wrong level claim: levels 0..3 are not covered.
  EXPECT_FALSE(CheckViewPrefix(200, body, 3, body.size(), Fnv1a(body)));
  for (size_t level = 0; level < 4; ++level) {
    std::vector<uint8_t> p =
        hedc::wavelet::SlicePrefixForLevel(stream, level).value();
    std::string b(p.begin(), p.end());
    EXPECT_TRUE(CheckViewPrefix(200, b, level, b.size(), Fnv1a(b))) << level;
  }
  std::string garbage(body.size(), 'x');
  EXPECT_FALSE(
      CheckViewPrefix(200, garbage, 2, garbage.size(), Fnv1a(garbage)));
}

TEST(ChecksTest, GeneratedViewPrefixesPassTheirOwnCheck) {
  Inputs inputs = GenerateInputs(5, 0);
  ASSERT_FALSE(inputs.units.empty());
  for (const UnitData& unit : inputs.units) {
    std::vector<uint8_t> stream =
        hedc::wavelet::EncodeSignalProgressive(unit.counts);
    for (int level = 0; level < UnitData::kLevels; ++level) {
      std::vector<uint8_t> p =
          hedc::wavelet::SlicePrefixForLevel(stream, level).value();
      std::string body(p.begin(), p.end());
      EXPECT_TRUE(CheckViewPrefix(200, body, level, unit.prefix_size[level],
                                  unit.prefix_hash[level]))
          << "unit " << unit.unit_id << " level " << level;
    }
  }
}

TEST(ChecksTest, ApproxMustLieWithinItsBound) {
  std::string body =
      "{\"unit\":1,\"agg\":\"count\",\"estimate\":105.000000,"
      "\"error_bound\":10.000000,\"bins\":4}";
  EXPECT_TRUE(CheckApprox(200, body, 100));
  EXPECT_TRUE(CheckApprox(200, body, 95));
  EXPECT_FALSE(CheckApprox(200, body, 94));
  EXPECT_FALSE(CheckApprox(200, "{\"estimate\":1}", 1));
  EXPECT_FALSE(CheckApprox(500, body, 100));
}

TEST(ChecksTest, AnalyzePageShapes) {
  AnalyzeOutcome fresh = ParseAnalyzePage(
      200,
      "<p>lightcurve finished; result stored as <a href='/ana?id=42'>"
      "ANA 42</a></p>");
  EXPECT_TRUE(fresh.ok);
  EXPECT_FALSE(fresh.existing);
  EXPECT_EQ(fresh.ana_id, 42);
  AnalyzeOutcome existing = ParseAnalyzePage(
      200,
      "<p>Identical analysis already available: <a href='/ana?id=9'>ANA "
      "9</a></p>");
  EXPECT_TRUE(existing.ok);
  EXPECT_TRUE(existing.existing);
  EXPECT_EQ(existing.ana_id, 9);
  EXPECT_FALSE(ParseAnalyzePage(404, "analysis failed").ok);
  EXPECT_FALSE(ParseAnalyzePage(200, "<p>something else</p>").ok);
}

TEST(StackHelpersTest, ItemClassesAndRunIds) {
  EXPECT_EQ(ItemIdFromPath("ana/2000000007"), 2000000007);
  EXPECT_EQ(ItemIdFromPath("raw/5"), 5);
  EXPECT_EQ(ItemIdFromPath("x/y"), -1);
  EXPECT_EQ(ClassOfItem(5), ItemClass::kRaw);
  EXPECT_EQ(ClassOfItem(1000000005), ItemClass::kView);
  EXPECT_EQ(ClassOfItem(2000000005), ItemClass::kImage);
  EXPECT_EQ(ClassOfItem(4000000001), ItemClass::kBlob);
  hedc::analysis::AnalysisParams params;
  params.Set("run_id", "r123");
  EXPECT_EQ(RidFromParams(params), 123);
  params.Set("run_id", "s4");
  EXPECT_EQ(RidFromParams(params), 0);
}

TEST(SelfTimeTest, ChildrenCoverageIsSubtractedOnce) {
  // Round trip 0..100 (net) > dispatch 10..90 (web) > two overlapping
  // archive reads 20..40 and 30..50, plus a routine on another thread
  // 60..80 parented to the dispatch.
  std::vector<Span> spans = {
      {1, RootSpanId(1), 0, "net", "hle", 0, 100},
      {1, DispatchSpanId(1), RootSpanId(1), "web", "/hle", 10, 90},
      {1, 100, DispatchSpanId(1), "archive", "image", 20, 40},
      {1, 101, DispatchSpanId(1), "archive", "image", 30, 50},
      {1, 102, DispatchSpanId(1), "analysis", "lightcurve", 60, 80},
      {1, 0, DispatchSpanId(1), "archive", "read.image", 20, 50, 0, true},
  };
  SelfTimes self = ComputeSelfTimes(spans);
  EXPECT_EQ(self.requests, 1);
  EXPECT_EQ(self.root_ns, 100);
  EXPECT_EQ(self.by_layer["net"].self_ns, 20);
  EXPECT_EQ(self.by_layer["web"].self_ns, 30);  // 80 - (20..50) - (60..80)
  EXPECT_EQ(self.by_layer["archive"].self_ns, 40);  // summaries excluded
  EXPECT_EQ(self.by_layer["analysis"].self_ns, 20);
  double total = 0;
  for (const auto& [layer, t] : self.by_layer) total += t.self_ns;
  EXPECT_EQ(total, 110);  // overlapping siblings are each counted whole
}

}  // namespace
}  // namespace perfbench
