// Metrics & request-tracing subsystem tests: registry semantics, histogram
// bucket boundaries, snapshot consistency, concurrent hammer tests, and an
// end-to-end trace of one analysis request across all tiers.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/strings.h"
#include "hedc_fixture.h"
#include "web/http.h"

namespace hedc {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(0);
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(CounterTest, StressConcurrentIncrementsAreNotLost) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread);
}

TEST(HistogramTest, BucketBoundariesAreLeInclusive) {
  Histogram hist({10, 100, 1000});
  hist.Observe(0);     // <= 10
  hist.Observe(10);    // <= 10 (boundary lands in its own bucket)
  hist.Observe(11);    // <= 100
  hist.Observe(100);   // <= 100
  hist.Observe(1000);  // <= 1000
  hist.Observe(1001);  // overflow
  Histogram::Snapshot snap = hist.TakeSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 2);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.count, 6);
  EXPECT_EQ(snap.sum, 0 + 10 + 11 + 100 + 1000 + 1001);
}

TEST(HistogramTest, SnapshotCountMatchesBucketSum) {
  Histogram hist(Histogram::DefaultLatencyBoundsUs());
  for (int i = 0; i < 1000; ++i) hist.Observe(i * 37);
  Histogram::Snapshot snap = hist.TakeSnapshot();
  int64_t bucket_total = 0;
  for (int64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(hist.count(), 1000);
}

TEST(HistogramTest, MeanAndPercentile) {
  Histogram hist({10, 20, 30});
  for (int i = 0; i < 10; ++i) hist.Observe(5);    // first bucket
  for (int i = 0; i < 10; ++i) hist.Observe(25);   // third bucket
  Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.Mean(), 15.0);
  // p0 falls in [0,10], p99 in (20,30].
  EXPECT_LE(snap.Percentile(0.0), 10.0);
  EXPECT_GT(snap.Percentile(0.99), 20.0);
  EXPECT_LE(snap.Percentile(0.99), 30.0);
  // Empty histogram reports 0.
  Histogram empty({10});
  EXPECT_DOUBLE_EQ(empty.TakeSnapshot().Percentile(0.5), 0.0);
}

TEST(HistogramTest, StressConcurrentObservationsAreNotLost) {
  Histogram hist({100, 10000});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) hist.Observe(t * 100 + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.TakeSnapshot().count, int64_t{kThreads} * kPerThread);
}

TEST(ScopedTimerTest, RecordsOneObservation) {
  Histogram hist(Histogram::DefaultLatencyBoundsUs());
  { ScopedTimer timer(&hist); }
  EXPECT_EQ(hist.count(), 1);
  {
    ScopedTimer cancelled(&hist);
    cancelled.Cancel();
  }
  EXPECT_EQ(hist.count(), 1);  // cancelled timer records nothing
}

TEST(TraceLogTest, RecordSnapshotDrain) {
  TraceLog log(8);
  int64_t id1 = log.NewTraceId();
  int64_t id2 = log.NewTraceId();
  EXPECT_GT(id2, id1);
  log.Record(TraceEvent{id1, "web", "/hle", 1, 2, ""});
  log.Record(TraceEvent{id1, "pl", "execute", 2, 3, ""});
  EXPECT_EQ(log.size(), 2u);
  std::vector<TraceEvent> snap = log.SnapshotTrace();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].span, "/hle");
  EXPECT_EQ(log.size(), 2u);  // snapshot does not consume
  std::vector<TraceEvent> drained = log.Drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLogTest, CapacityBoundsTheRing) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(TraceEvent{i + 1, "c", "s", 0, 0, ""});
  }
  std::vector<TraceEvent> events = log.SnapshotTrace();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().trace_id, 7);  // oldest surviving
  EXPECT_EQ(events.back().trace_id, 10);
}

TEST(TraceSpanTest, RecordsIntoRegistryAndDropsUntraced) {
  MetricsRegistry registry;
  {
    TraceSpan span(77, "pl", "estimate", &registry);
    span.AddNote("n=1");
    span.AddNote("ok");
  }
  { TraceSpan untraced(0, "pl", "estimate", &registry); }
  std::vector<TraceEvent> events = registry.traces().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, 77);
  EXPECT_EQ(events[0].component, "pl");
  EXPECT_EQ(events[0].span, "estimate");
  EXPECT_EQ(events[0].note, "n=1; ok");
  EXPECT_GE(events[0].end_us, events[0].start_us);
}

TEST(MetricsRegistryTest, GetReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a.count");
  Counter* c2 = registry.GetCounter("a.count");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  Histogram* h1 = registry.GetHistogram("h", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("h", {9});  // bounds ignored now
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 3u);
}

TEST(MetricsRegistryTest, SnapshotValuesCoversAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("reqs")->Add(5);
  registry.GetGauge("depth")->Set(3);
  registry.GetHistogram("lat_us")->Observe(123);
  std::set<std::string> names;
  for (const auto& m : registry.SnapshotValues()) names.insert(m.name);
  EXPECT_TRUE(names.count("reqs"));
  EXPECT_TRUE(names.count("depth"));
  EXPECT_TRUE(names.count("lat_us.count"));
  EXPECT_TRUE(names.count("lat_us.sum"));
  EXPECT_TRUE(names.count("lat_us.p95"));
}

TEST(MetricsRegistryTest, RenderTextSanitizesAndFormats) {
  MetricsRegistry registry;
  registry.GetCounter("web.requests/hle")->Add(2);
  registry.GetHistogram("db.query_us", {10, 100})->Observe(50);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("web_requests_hle 2\n"), std::string::npos);
  EXPECT_NE(text.find("db_query_us_bucket{le=\"10\"} 0"), std::string::npos);
  EXPECT_NE(text.find("db_query_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("db_query_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("db_query_us_sum 50"), std::string::npos);
  EXPECT_NE(text.find("db_query_us_count 1"), std::string::npos);
}

// --- end-to-end: one /analyze request traced across all tiers ------------

class MetricsE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_metrics_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    // WAL on: the commit + mirror writes below must tick wal.* metrics.
    ASSERT_TRUE(stack_.node.db()->OpenWal((dir_ / "db.wal").string()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string LoginCookie() {
    web::HttpResponse response = stack_.node.web()->Dispatch(
        web::MakeRequest("/login?user=alice&password=pw-a"));
    return response.set_cookies.at("hedc_session");
  }

  std::filesystem::path dir_;
  testing::HedcStack stack_;
};

TEST_F(MetricsE2eTest, MetricsServletExposesAllTiers) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  std::string cookie = LoginCookie();
  std::string url = StrFormat("/analyze?hle_id=%lld&routine=lightcurve",
                              (long long)stack_.hle_ids[0]);
  web::HttpResponse analyze = stack_.node.web()->Dispatch(
      web::MakeRequest(url, "127.0.0.1", cookie));
  ASSERT_EQ(analyze.status_code, 200) << analyze.body;

  web::HttpResponse metrics =
      stack_.node.web()->Dispatch(web::MakeRequest("/metrics"));
  ASSERT_EQ(metrics.status_code, 200);
  EXPECT_EQ(metrics.content_type, "text/plain");
  // Live coverage of every instrumented tier.
  for (const char* needle :
       {"namemap_resolutions", "namemap_db_queries", "namemap_resolve_us",
        "wal_fsyncs", "wal_fsync_us", "db_query_us", "db_update_us",
        "db_rows_scanned", "db_rows_matched",
        "dm_sessions_creates", "dm_sessions_get_us",
        "pl_estimate_us", "pl_execute_us", "pl_deliver_us", "pl_commit_us",
        "pl_invoke_attempts", "web_latency_us_analyze",
        "web_requests_analyze", "web_status_200"}) {
    EXPECT_NE(metrics.body.find(needle), std::string::npos)
        << "missing metric: " << needle;
  }
  // (The scan accounting pair's arithmetic is asserted in
  // DatabaseTest.ScannedVersusMatchedCounters; the stack's own queries
  // are all index-backed, so here we only require exposure.)
  // Counters that must have ticked during the analyze request.
  MetricsRegistry* registry = MetricsRegistry::Default();
  EXPECT_GT(registry->GetCounter("namemap.resolutions")->Value(), 0);
  EXPECT_GT(registry->GetCounter("wal.fsyncs")->Value(), 0);
  EXPECT_GT(registry->GetCounter("pl.invoke.attempts")->Value(), 0);
  EXPECT_GT(registry->GetHistogram("pl.execute_us")->count(), 0);
}

TEST_F(MetricsE2eTest, OneRequestIdTraceableAcrossAllFourPlPhases) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  std::string cookie = LoginCookie();
  std::string url = StrFormat("/analyze?hle_id=%lld&routine=histogram",
                              (long long)stack_.hle_ids[0]);
  web::HttpResponse analyze = stack_.node.web()->Dispatch(
      web::MakeRequest(url, "127.0.0.1", cookie));
  ASSERT_EQ(analyze.status_code, 200) << analyze.body;

  // /metrics mirrors the registry, draining spans into request_traces.
  ASSERT_EQ(
      stack_.node.web()->Dispatch(web::MakeRequest("/metrics")).status_code,
      200);

  Result<db::ResultSet> commits = stack_.node.db()->Execute(
      "SELECT trace_id FROM request_traces WHERE span = 'commit'");
  ASSERT_TRUE(commits.ok()) << commits.status().ToString();
  ASSERT_GE(commits.value().num_rows(), 1u);
  int64_t trace_id = commits.value().rows[0][0].AsInt();
  EXPECT_GT(trace_id, 0);

  Result<db::ResultSet> spans = stack_.node.db()->Execute(
      "SELECT component, span FROM request_traces WHERE trace_id = ?",
      {db::Value::Int(trace_id)});
  ASSERT_TRUE(spans.ok());
  std::set<std::pair<std::string, std::string>> seen;
  for (const db::Row& row : spans.value().rows) {
    seen.emplace(row[0].AsText(), row[1].AsText());
  }
  // The same request id threads estimation -> execution -> delivery ->
  // commit, plus the web servlet span that initiated it.
  EXPECT_TRUE(seen.count({"pl", "estimate"}));
  EXPECT_TRUE(seen.count({"pl", "execute"}));
  EXPECT_TRUE(seen.count({"pl", "deliver"}));
  EXPECT_TRUE(seen.count({"pl", "commit"}));
  EXPECT_TRUE(seen.count({"web", "/analyze"}));
}

TEST_F(MetricsE2eTest, StatusPageRendersMirroredMetrics) {
  web::HttpRequest request = web::MakeRequest("/status");
  web::HttpResponse forbidden = stack_.node.web()->Dispatch(request);
  EXPECT_EQ(forbidden.status_code, 403);

  web::HttpResponse login = stack_.node.web()->Dispatch(
      web::MakeRequest("/login?user=import&password=pw-i"));
  web::HttpRequest admin = web::MakeRequest(
      "/status", "127.0.0.1", login.set_cookies.at("hedc_session"));
  web::HttpResponse status = stack_.node.web()->Dispatch(admin);
  ASSERT_EQ(status.status_code, 200);
  EXPECT_NE(status.body.find("Metrics"), std::string::npos);
  EXPECT_NE(status.body.find("web.requests/status"), std::string::npos);

  // The mirror keeps only the latest snapshot (delete-then-insert).
  ASSERT_TRUE(stack_.node.dm()->MirrorMetrics().ok());
  Result<db::ResultSet> rows = stack_.node.db()->Execute(
      "SELECT COUNT(*) FROM metric_snapshots WHERE metric = "
      "'web.requests/status'");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInt(), 1);
}

}  // namespace
}  // namespace hedc
