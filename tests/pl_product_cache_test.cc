// Derived-product cache tests: content-addressed keys, codec integrity,
// single-flight coalescing under fault injection, lineage invalidation,
// durable restart recovery and GDSF eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/content_hash.h"
#include "pl/frontend.h"
#include "pl/product_cache.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "web/web_server.h"
#include "cluster_fixture.h"
#include "hedc_fixture.h"

namespace hedc::pl {
namespace {

rhessi::PhotonList TinyPhotons() {
  rhessi::TelemetryOptions options;
  options.duration_sec = 20;
  options.background_rate = 40;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 11;
  return rhessi::GenerateTelemetry(options).photons;
}

analysis::AnalysisProduct MakeProduct(const std::string& routine,
                                      size_t rendered_bytes = 64) {
  analysis::AnalysisProduct product;
  product.routine = routine;
  product.metadata["photons"] = "123";
  product.metadata["alg"] = "clean";
  analysis::Image image;
  image.width = 4;
  image.height = 2;
  image.pixels = {0, 1, 2, 3, 4, 5, 6, 7};
  product.image = image;
  analysis::Series series;
  series.x = {0.0, 0.5, 1.0};
  series.y = {10.0, 20.0, 5.0};
  product.series = series;
  product.log = "run complete";
  product.rendered.assign(rendered_bytes, 0xAB);
  return product;
}

// Deterministic routine: counts executions; an optional gate runs before
// the count and may inject a failure (a failed execution, as opposed to
// an interpreter crash).
class CountingRoutine : public analysis::AnalysisRoutine {
 public:
  CountingRoutine(std::string name, std::atomic<int>* runs,
                  std::function<Status()> gate = nullptr)
      : name_(std::move(name)), runs_(runs), gate_(std::move(gate)) {}

  std::string name() const override { return name_; }

  Result<analysis::AnalysisProduct> Run(
      const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params) const override {
    if (gate_) {
      Status s = gate_();
      if (!s.ok()) return s;
    }
    runs_->fetch_add(1, std::memory_order_relaxed);
    analysis::AnalysisProduct product = MakeProduct(name_);
    product.metadata["photons"] = std::to_string(photons.size());
    product.metadata["bins"] = params.Get("bins", "0");
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const analysis::AnalysisParams&) const override {
    return static_cast<double>(photon_count);
  }

 private:
  std::string name_;
  std::atomic<int>* runs_;
  std::function<Status()> gate_;
};

// Minimal PL stack around a memory-only cache and one counting routine.
struct MiniPl {
  MiniPl(size_t dispatchers, size_t servers, std::atomic<int>* runs,
         std::function<Status()> gate = nullptr,
         ProductCache::Options cache_options = {},
         IdlServer::Options server_options = {},
         IdlServerManager::Options manager_options = {}) {
    registry = std::make_unique<analysis::RoutineRegistry>();
    registry->Register(
        std::make_unique<CountingRoutine>("counting", runs, gate));
    manager = std::make_unique<IdlServerManager>("host0", manager_options);
    for (size_t i = 0; i < servers; ++i) {
      manager->AddServer(std::make_unique<IdlServer>(
          "idl" + std::to_string(i), registry.get(), &clock,
          server_options));
    }
    directory.Register("host0", manager.get(), "local");
    cache = std::make_unique<ProductCache>(nullptr, cache_options);
    Frontend::Options fe_options;
    fe_options.dispatcher_threads = dispatchers;
    frontend = std::make_unique<Frontend>(&directory, &predictor, &clock,
                                          Frontend::Committer(), fe_options);
    frontend->set_product_cache(cache.get());
  }

  ProcessingRequest Request() {
    ProcessingRequest request;
    request.routine = "counting";
    request.params.SetInt("bins", 16);
    request.photons = TinyPhotons();
    request.input_units = {{1, 1}};
    return request;
  }

  VirtualClock clock;
  std::unique_ptr<analysis::RoutineRegistry> registry;
  std::unique_ptr<IdlServerManager> manager;
  GlobalDirectory directory;
  DurationPredictor predictor;
  std::unique_ptr<ProductCache> cache;
  std::unique_ptr<Frontend> frontend;
};

// --- key derivation -------------------------------------------------------

TEST(ProductCacheKeyTest, ParameterOrderIndependent) {
  analysis::AnalysisParams a;
  a.Set("zeta", "1");
  a.Set("alpha", "2");
  a.SetInt("bins", 32);
  analysis::AnalysisParams b;
  b.SetInt("bins", 32);
  b.Set("alpha", "2");
  b.Set("zeta", "1");
  ProductCacheKey ka = MakeProductCacheKey("imaging", a, {{7, 3}});
  ProductCacheKey kb = MakeProductCacheKey("imaging", b, {{7, 3}});
  ASSERT_TRUE(ka.valid);
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(ka.hash, kb.hash);
}

TEST(ProductCacheKeyTest, InputOrderIndependent) {
  analysis::AnalysisParams params;
  ProductCacheKey ka =
      MakeProductCacheKey("imaging", params, {{2, 1}, {1, 1}});
  ProductCacheKey kb =
      MakeProductCacheKey("imaging", params, {{1, 1}, {2, 1}});
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.canonical, kb.canonical);
}

TEST(ProductCacheKeyTest, CalibrationVersionChangesKey) {
  analysis::AnalysisParams params;
  params.SetInt("bins", 8);
  ProductCacheKey v1 = MakeProductCacheKey("histogram", params, {{5, 1}});
  ProductCacheKey v2 = MakeProductCacheKey("histogram", params, {{5, 2}});
  EXPECT_NE(v1.hash, v2.hash);
  ProductCacheKey other =
      MakeProductCacheKey("lightcurve", params, {{5, 1}});
  EXPECT_NE(v1.hash, other.hash);
}

TEST(ProductCacheKeyTest, EmptyInputsInvalid) {
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {});
  EXPECT_FALSE(key.valid);
}

// --- codec ----------------------------------------------------------------

TEST(ProductCodecTest, RoundTrip) {
  analysis::AnalysisProduct product = MakeProduct("imaging", 48);
  std::vector<uint8_t> bytes = EncodeProduct(product);
  Result<analysis::AnalysisProduct> decoded = DecodeProduct(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().routine, "imaging");
  EXPECT_EQ(decoded.value().metadata, product.metadata);
  ASSERT_TRUE(decoded.value().image.has_value());
  EXPECT_EQ(decoded.value().image->pixels, product.image->pixels);
  EXPECT_EQ(decoded.value().image->width, product.image->width);
  ASSERT_TRUE(decoded.value().series.has_value());
  EXPECT_EQ(decoded.value().series->y, product.series->y);
  EXPECT_EQ(decoded.value().log, product.log);
  EXPECT_EQ(decoded.value().rendered, product.rendered);
}

TEST(ProductCodecTest, RoundTripWithoutOptionalParts) {
  analysis::AnalysisProduct product;
  product.routine = "lightcurve";
  std::vector<uint8_t> bytes = EncodeProduct(product);
  Result<analysis::AnalysisProduct> decoded = DecodeProduct(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().image.has_value());
  EXPECT_FALSE(decoded.value().series.has_value());
  EXPECT_TRUE(decoded.value().rendered.empty());
}

TEST(ProductCodecTest, DetectsCorruption) {
  std::vector<uint8_t> bytes = EncodeProduct(MakeProduct("imaging"));
  // Bit flip in the payload: CRC mismatch.
  std::vector<uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40;
  EXPECT_EQ(DecodeProduct(flipped).status().code(),
            StatusCode::kCorruption);
  // Truncation.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  EXPECT_EQ(DecodeProduct(truncated).status().code(),
            StatusCode::kCorruption);
  // Garbage.
  EXPECT_EQ(DecodeProduct({1, 2, 3}).status().code(),
            StatusCode::kCorruption);
}

// --- single-flight mechanics (cache only, no frontend) --------------------

TEST(ProductCacheTest, LeaderHitAndCounters) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_leaderhit";
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{1, 1}});

  EXPECT_FALSE(cache.Peek(key));
  ProductCache::Ticket leader = cache.Admit(key);
  ASSERT_EQ(leader.role, ProductCache::Role::kLeader);
  EXPECT_TRUE(cache.Peek(key));  // in flight counts as "will be served"

  analysis::AnalysisProduct product = MakeProduct("imaging");
  cache.CompleteSuccess(leader, product, 2.0, 77);

  ProductCache::Ticket hit = cache.Admit(key);
  ASSERT_EQ(hit.role, ProductCache::Role::kHit);
  EXPECT_EQ(hit.hit.ana_id, 77);
  EXPECT_EQ(hit.hit.bytes, EncodeProduct(product));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_GT(cache.bytes_cached(), 0u);

  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_EQ(metrics->GetCounter("pc_unit_leaderhit.hits")->Value(), 1);
  EXPECT_EQ(metrics->GetCounter("pc_unit_leaderhit.misses")->Value(), 1);
}

TEST(ProductCacheTest, FollowerReceivesLeaderResult) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_follower";
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{1, 1}});

  ProductCache::Ticket leader = cache.Admit(key);
  ASSERT_EQ(leader.role, ProductCache::Role::kLeader);
  ProductCache::Ticket follower = cache.Admit(key);
  ASSERT_EQ(follower.role, ProductCache::Role::kFollower);
  EXPECT_EQ(cache.WaitersFor(key), 1u);

  analysis::AnalysisProduct product = MakeProduct("imaging");
  std::thread publisher(
      [&] { cache.CompleteSuccess(leader, product, 1.0, 5); });
  Result<ProductCache::CachedProduct> shared = cache.Await(follower);
  publisher.join();
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value().ana_id, 5);
  EXPECT_EQ(shared.value().bytes, EncodeProduct(product));
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("pc_unit_follower.coalesced")
          ->Value(),
      1);
}

TEST(ProductCacheTest, FailureFailsWaitersAndDoesNotPoison) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_failure";
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{1, 1}});

  ProductCache::Ticket leader = cache.Admit(key);
  ProductCache::Ticket follower = cache.Admit(key);
  std::thread publisher([&] {
    cache.CompleteFailure(leader,
                          Status::Unavailable("interpreter crashed"));
  });
  Result<ProductCache::CachedProduct> shared = cache.Await(follower);
  publisher.join();
  ASSERT_FALSE(shared.ok());
  EXPECT_TRUE(shared.status().IsUnavailable());

  // Nothing cached, nothing in flight: the next request is a fresh
  // leader, not a stale hit.
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.Peek(key));
  EXPECT_EQ(cache.Admit(key).role, ProductCache::Role::kLeader);
}

TEST(ProductCacheTest, DisabledAdmitsNothing) {
  // A key without input units has no lineage to invalidate by, so the
  // cache neither admits nor serves it: the request runs uncached.
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_disabled";
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {});
  ASSERT_FALSE(key.valid);
  EXPECT_EQ(cache.Admit(key).role, ProductCache::Role::kDisabled);
  EXPECT_FALSE(cache.Peek(key));
  EXPECT_EQ(cache.Admit(key).role, ProductCache::Role::kDisabled);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetCounter("pc_unit_disabled.misses")
                ->Value(),
            0);
}

// --- GDSF eviction --------------------------------------------------------

TEST(ProductCacheTest, GdsfEvictsCheapBulkyFirst) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_gdsf";
  // Sized so two of the three products fit but not all three.
  analysis::AnalysisProduct bulky_cheap = MakeProduct("imaging", 4096);
  analysis::AnalysisProduct small_costly = MakeProduct("imaging", 256);
  analysis::AnalysisProduct incoming = MakeProduct("imaging", 2048);
  uint64_t bulky = EncodeProduct(bulky_cheap).size();
  uint64_t small = EncodeProduct(small_costly).size();
  uint64_t extra = EncodeProduct(incoming).size();
  options.capacity_bytes = bulky + small + extra - 1;
  ProductCache cache(nullptr, options);

  analysis::AnalysisParams params;
  ProductCacheKey key_bulky = MakeProductCacheKey("imaging", params, {{1, 1}});
  ProductCacheKey key_small = MakeProductCacheKey("imaging", params, {{2, 1}});
  ProductCacheKey key_new = MakeProductCacheKey("imaging", params, {{3, 1}});

  cache.CompleteSuccess(cache.Admit(key_bulky), bulky_cheap, 0.0001, 0);
  cache.CompleteSuccess(cache.Admit(key_small), small_costly, 30.0, 0);
  ASSERT_EQ(cache.entry_count(), 2u);

  // Inserting the third entry must evict exactly the cheap/bulky one:
  // its cost/size priority is the minimum.
  cache.CompleteSuccess(cache.Admit(key_new), incoming, 5.0, 0);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_FALSE(cache.Peek(key_bulky));
  EXPECT_TRUE(cache.Peek(key_small));
  EXPECT_TRUE(cache.Peek(key_new));
  EXPECT_LE(cache.bytes_cached(), options.capacity_bytes);
  EXPECT_EQ(
      MetricsRegistry::Default()->GetCounter("pc_unit_gdsf.evictions")
          ->Value(),
      1);
}

TEST(ProductCacheTest, OversizedProductDeliveredButNotAdmitted) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_oversize";
  options.capacity_bytes = 64;  // smaller than any encoded product
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{1, 1}});
  ProductCache::Ticket leader = cache.Admit(key);
  ProductCache::Ticket follower = cache.Admit(key);
  analysis::AnalysisProduct product = MakeProduct("imaging", 4096);
  std::thread publisher(
      [&] { cache.CompleteSuccess(leader, product, 1.0, 0); });
  Result<ProductCache::CachedProduct> shared = cache.Await(follower);
  publisher.join();
  ASSERT_TRUE(shared.ok());  // waiters still get the product
  EXPECT_EQ(cache.entry_count(), 0u);  // but nothing was admitted
}

// --- invalidation (cache only) -------------------------------------------

TEST(ProductCacheTest, InvalidateUnitDropsDependents) {
  ProductCache::Options options;
  options.metric_prefix = "pc_unit_invalidate";
  ProductCache cache(nullptr, options);
  analysis::AnalysisParams params;
  ProductCacheKey depends =
      MakeProductCacheKey("imaging", params, {{5, 1}, {6, 1}});
  ProductCacheKey unrelated = MakeProductCacheKey("imaging", params, {{7, 1}});
  cache.CompleteSuccess(cache.Admit(depends), MakeProduct("imaging"), 1, 0);
  cache.CompleteSuccess(cache.Admit(unrelated), MakeProduct("imaging"), 1, 0);

  EXPECT_EQ(cache.InvalidateUnit(6), 1);
  EXPECT_FALSE(cache.Peek(depends));
  EXPECT_TRUE(cache.Peek(unrelated));
  EXPECT_EQ(cache.InvalidateUnit(999), 0);
  EXPECT_EQ(
      MetricsRegistry::Default()
          ->GetCounter("pc_unit_invalidate.invalidations")
          ->Value(),
      1);
}

// --- frontend integration (counting executions) ---------------------------

TEST(ProductCacheFrontendTest, WarmHitSkipsExecution) {
  std::atomic<int> runs{0};
  MiniPl pl(2, 2, &runs);

  Result<int64_t> first = pl.frontend->Submit(pl.Request());
  ASSERT_TRUE(first.ok());
  RequestOutcome out1 = pl.frontend->Wait(first.value());
  EXPECT_EQ(out1.state, RequestState::kDelivered);
  EXPECT_EQ(runs.load(), 1);

  Result<int64_t> second = pl.frontend->Submit(pl.Request());
  ASSERT_TRUE(second.ok());
  RequestOutcome out2 = pl.frontend->Wait(second.value());
  EXPECT_EQ(out2.state, RequestState::kDelivered);
  EXPECT_EQ(runs.load(), 1);  // served from cache, no second execution
  EXPECT_EQ(out2.product.metadata, out1.product.metadata);
  ASSERT_TRUE(out2.product.image.has_value());
  EXPECT_EQ(out2.product.image->pixels, out1.product.image->pixels);
  // Estimation saw the cached entry: predicted duration collapses to 0.
  EXPECT_EQ(out2.predicted_seconds, 0);
}

TEST(ProductCacheFrontendTest, DisabledCacheRestoresPrePrPath) {
  std::atomic<int> runs{0};
  MiniPl pl(2, 2, &runs);
  pl.frontend->set_product_cache(nullptr);

  for (int i = 0; i < 2; ++i) {
    Result<int64_t> id = pl.frontend->Submit(pl.Request());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(pl.frontend->Wait(id.value()).state,
              RequestState::kDelivered);
  }
  // Differential: with no cache attached, both requests execute.
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(pl.cache->entry_count(), 0u);
}

TEST(ProductCacheFrontendTest, CoalescesConcurrentIdenticalRequests) {
  constexpr int kRequests = 8;
  std::atomic<int> runs{0};
  ProductCache* cache_ptr = nullptr;
  ProductCacheKey gate_key;
  // The leader's execution blocks until all other dispatchers have
  // admitted as followers, making coalesced == 7 deterministic.
  auto gate = [&]() -> Status {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cache_ptr->WaitersFor(gate_key) <
               static_cast<size_t>(kRequests - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  };
  ProductCache::Options cache_options;
  cache_options.metric_prefix = "pc_fe_coalesce";
  MiniPl pl(kRequests, kRequests, &runs, gate, cache_options);
  cache_ptr = pl.cache.get();
  ProcessingRequest prototype = pl.Request();
  gate_key = MakeProductCacheKey(prototype.routine, prototype.params,
                                 prototype.input_units);

  std::vector<int64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    Result<int64_t> id = pl.frontend->Submit(pl.Request());
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (int64_t id : ids) {
    RequestOutcome outcome = pl.frontend->Wait(id);
    EXPECT_EQ(outcome.state, RequestState::kDelivered)
        << outcome.status.ToString();
  }
  // Exactly one IDL execution for N identical concurrent requests.
  EXPECT_EQ(runs.load(), 1);
  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_EQ(metrics->GetCounter("pc_fe_coalesce.coalesced")->Value(),
            kRequests - 1);
  EXPECT_EQ(metrics->GetCounter("pc_fe_coalesce.misses")->Value(), 1);
}

TEST(ProductCacheFrontendTest, FailedExecutionFailsAllWaitersNoPoison) {
  constexpr int kRequests = 4;
  std::atomic<int> runs{0};
  ProductCache* cache_ptr = nullptr;
  ProductCacheKey gate_key;
  std::atomic<bool> fail_mode{true};
  // First round: wait for all followers, then fail the execution (the
  // routine errors out, i.e. a failed run rather than a process crash).
  auto gate = [&]() -> Status {
    if (!fail_mode.load()) return Status::Ok();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cache_ptr->WaitersFor(gate_key) <
               static_cast<size_t>(kRequests - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Unavailable("interpreter died mid-routine");
  };
  ProductCache::Options cache_options;
  cache_options.metric_prefix = "pc_fe_crashfail";
  MiniPl pl(kRequests, kRequests, &runs, gate, cache_options);
  cache_ptr = pl.cache.get();
  ProcessingRequest prototype = pl.Request();
  gate_key = MakeProductCacheKey(prototype.routine, prototype.params,
                                 prototype.input_units);

  std::vector<int64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    ids.push_back(pl.frontend->Submit(pl.Request()).value());
  }
  for (int64_t id : ids) {
    RequestOutcome outcome = pl.frontend->Wait(id);
    EXPECT_EQ(outcome.state, RequestState::kFailed);
    EXPECT_TRUE(outcome.status.IsUnavailable());
  }
  // No execution completed, nothing was cached.
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(pl.cache->entry_count(), 0u);
  EXPECT_FALSE(pl.cache->Peek(gate_key));

  // A healthy retry is a fresh leader and repopulates the cache.
  fail_mode.store(false);
  RequestOutcome retry =
      pl.frontend->Wait(pl.frontend->Submit(pl.Request()).value());
  EXPECT_EQ(retry.state, RequestState::kDelivered);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(pl.cache->Peek(gate_key));
}

TEST(ProductCacheFrontendTest, SeededInterpreterCrashDoesNotPoison) {
  std::atomic<int> runs{0};
  IdlServer::Options crashy;
  crashy.crash_probability = 1.0;
  crashy.fault_seed = 13;
  IdlServerManager::Options manager_options;
  manager_options.max_retries = 1;
  ProductCache::Options cache_options;
  cache_options.metric_prefix = "pc_fe_seededcrash";
  MiniPl pl(2, 1, &runs, nullptr, cache_options, crashy, manager_options);

  RequestOutcome crashed =
      pl.frontend->Wait(pl.frontend->Submit(pl.Request()).value());
  EXPECT_EQ(crashed.state, RequestState::kFailed);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(pl.cache->entry_count(), 0u);

  // Bring a healthy host online; the same request executes and caches.
  IdlServerManager healthy("host1", {});
  healthy.AddServer(std::make_unique<IdlServer>(
      "idl-ok", pl.registry.get(), &pl.clock, IdlServer::Options{}));
  pl.directory.SetOnline("host0", false);
  pl.directory.Register("host1", &healthy, "local");

  RequestOutcome ok =
      pl.frontend->Wait(pl.frontend->Submit(pl.Request()).value());
  EXPECT_EQ(ok.state, RequestState::kDelivered) << ok.status.ToString();
  EXPECT_EQ(runs.load(), 1);
  RequestOutcome hit =
      pl.frontend->Wait(pl.frontend->Submit(pl.Request()).value());
  EXPECT_EQ(hit.state, RequestState::kDelivered);
  EXPECT_EQ(runs.load(), 1);
}

// --- full-stack: persistence, lineage, workflows --------------------------

class ProductCacheStackTest : public ::testing::Test {
 protected:
  ProcessingRequest RequestFor(int64_t hle_id, const char* routine) {
    dm::HleRecord hle = stack_.node.dm()->semantics()
                            .GetHle(stack_.import_session, hle_id)
                            .value();
    std::vector<uint8_t> packed =
        stack_.node.dm()->io().ReadItemFile(hle.unit_id).value();
    rhessi::RawDataUnit unit =
        rhessi::RawDataUnit::Unpack(packed).value();
    ProcessingRequest request;
    request.hle_id = hle_id;
    request.routine = routine;
    request.params.SetInt("bins", 16);
    request.params.SetDouble("t_start", hle.t_start);
    request.params.SetDouble("t_end", hle.t_end);
    request.input_units = {{hle.unit_id, unit.calibration_version}};
    request.photons = std::move(unit.photons);
    return request;
  }

  testing::HedcStack stack_;
};

TEST_F(ProductCacheStackTest, WarmHitSharesCommittedAnaId) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  RequestOutcome first = stack_.node.frontend()->Wait(
      stack_.node.frontend()->Submit(RequestFor(hle_id, "histogram")).value());
  ASSERT_EQ(first.state, RequestState::kCommitted)
      << first.status.ToString();
  ASSERT_GT(first.committed_ana_id, 0);
  EXPECT_EQ(stack_.node.product_cache()->entry_count(), 1u);

  RequestOutcome second = stack_.node.frontend()->Wait(
      stack_.node.frontend()->Submit(RequestFor(hle_id, "histogram")).value());
  ASSERT_EQ(second.state, RequestState::kCommitted);
  // The cached entry carries the committed ana id: no duplicate ANA row.
  EXPECT_EQ(second.committed_ana_id, first.committed_ana_id);

  // Persisted directory row exists and is visible on /metrics.
  Result<db::ResultSet> rows =
      stack_.node.db()->Execute("SELECT COUNT(*) FROM product_cache");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInt(), 1);
  web::HttpResponse metrics =
      stack_.node.web()->Dispatch(web::MakeRequest("/metrics"));
  ASSERT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("product_cache_hits"), std::string::npos);
  EXPECT_NE(metrics.body.find("product_cache_bytes"), std::string::npos);
}

TEST_F(ProductCacheStackTest, RecalibrationInvalidatesDependents) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  ProcessingRequest request = RequestFor(hle_id, "histogram");
  int64_t unit_id = request.input_units[0].unit_id;
  RequestOutcome first = stack_.node.frontend()->Wait(
      stack_.node.frontend()->Submit(std::move(request)).value());
  ASSERT_EQ(first.state, RequestState::kCommitted);
  ASSERT_EQ(stack_.node.product_cache()->entry_count(), 1u);

  // Recalibrate the unit: the workflow bumps the version and fires the
  // invalidator; the dependent entry must drop.
  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (double& g : v2.gain) g = 1.05;
  ASSERT_TRUE(calibrations.Register(v2).ok());
  Result<dm::DataLoadReport> recal = stack_.node.process()->RecalibrateUnit(
      stack_.import_session, unit_id, calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();
  EXPECT_EQ(stack_.node.product_cache()->entry_count(), 0u);
  Result<db::ResultSet> rows =
      stack_.node.db()->Execute("SELECT COUNT(*) FROM product_cache");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().rows[0][0].AsInt(), 0);

  // The post-recalibration request keys on version 2: fresh execution,
  // fresh commit — stale bytes are never served.
  RequestOutcome second = stack_.node.frontend()->Wait(
      stack_.node.frontend()->Submit(RequestFor(hle_id, "histogram")).value());
  ASSERT_EQ(second.state, RequestState::kCommitted)
      << second.status.ToString();
  EXPECT_NE(second.committed_ana_id, first.committed_ana_id);
}

TEST_F(ProductCacheStackTest, PurgeRemovesRowAndBlob) {
  // A private analysis with a cache entry sharing its ana id.
  dm::AnaRecord record;
  record.hle_id = stack_.hle_ids.empty() ? 1 : stack_.hle_ids[0];
  record.is_public = false;
  record.routine = "histogram";
  record.status = "done";
  Result<int64_t> ana = stack_.node.dm()->semantics().CreateAna(
      stack_.import_session, record);
  ASSERT_TRUE(ana.ok()) << ana.status().ToString();

  analysis::AnalysisParams params;
  params.SetInt("bins", 4);
  ProductCacheKey key = MakeProductCacheKey("histogram", params, {{1, 1}});
  ProductCache::Ticket leader = stack_.node.product_cache()->Admit(key);
  ASSERT_EQ(leader.role, ProductCache::Role::kLeader);
  stack_.node.product_cache()->CompleteSuccess(
      leader, MakeProduct("histogram"), 1.0, ana.value());

  Result<db::ResultSet> row = stack_.node.db()->Execute(
      "SELECT item_id FROM product_cache WHERE cache_key = ?",
      {db::Value::Int(static_cast<int64_t>(key.hash))});
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row.value().num_rows(), 1u);
  int64_t item_id = row.value().rows[0][0].AsInt();
  ASSERT_TRUE(stack_.node.dm()->io().ReadItemFile(item_id).ok());

  // Purge drops the ANA and, through the listener, the cache entry, its
  // directory row and its blob.
  Result<int64_t> purged =
      stack_.node.process()->PurgeStaleAnalyses(stack_.import_session, 1e18);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  EXPECT_GE(purged.value(), 1);
  EXPECT_FALSE(stack_.node.product_cache()->Peek(key));
  Result<db::ResultSet> after = stack_.node.db()->Execute(
      "SELECT COUNT(*) FROM product_cache WHERE cache_key = ?",
      {db::Value::Int(static_cast<int64_t>(key.hash))});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows[0][0].AsInt(), 0);
  EXPECT_FALSE(stack_.node.dm()->io().ReadItemFile(item_id).ok());
}

TEST_F(ProductCacheStackTest, RestartRecoversPersistedEntries) {
  analysis::AnalysisParams params;
  params.SetInt("bins", 32);
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{1, 1}});
  analysis::AnalysisProduct product = MakeProduct("imaging", 512);
  ProductCache* cache = stack_.node.product_cache();
  cache->CompleteSuccess(cache->Admit(key), product, 2.5, 0);
  ASSERT_EQ(cache->entry_count(), 1u);

  // A "restarted PL": a fresh cache instance over the same DM recovers
  // the index from the product_cache table and lazily streams the blob.
  ProductCache::Options options;
  options.metric_prefix = "pc_stack_restart";
  ProductCache restarted(stack_.node.dm(), options);
  ASSERT_TRUE(restarted.LoadFromDm().ok());
  EXPECT_EQ(restarted.entry_count(), 1u);
  EXPECT_EQ(restarted.bytes_cached(), cache->bytes_cached());
  ProductCache::Ticket hit = restarted.Admit(key);
  ASSERT_EQ(hit.role, ProductCache::Role::kHit);
  EXPECT_EQ(hit.hit.bytes, EncodeProduct(product));
  Result<analysis::AnalysisProduct> decoded = DecodeProduct(hit.hit.bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().routine, "imaging");
  EXPECT_EQ(decoded.value().rendered, product.rendered);
}

// --- stress (TSan targets, ctest label "stress") --------------------------

TEST(ProductCacheStressTest, ConcurrentAdmitCompleteInvalidate) {
  ProductCache::Options options;
  options.metric_prefix = "pc_stress_mixed";
  options.capacity_bytes = 512 * 1024;
  ProductCache cache(nullptr, options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  constexpr int kKeys = 5;
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      analysis::AnalysisParams params;
      for (int i = 0; i < kOpsPerThread; ++i) {
        int64_t unit = 1 + (t + i) % kKeys;
        ProductCacheKey key =
            MakeProductCacheKey("imaging", params, {{unit, 1}});
        ProductCache::Ticket ticket = cache.Admit(key);
        switch (ticket.role) {
          case ProductCache::Role::kHit:
            if (DecodeProduct(ticket.hit.bytes).ok() == false) {
              failures.fetch_add(1);
            }
            break;
          case ProductCache::Role::kLeader:
            if (i % 3 == 0) {
              cache.CompleteFailure(ticket, Status::Unavailable("boom"));
            } else {
              cache.CompleteSuccess(ticket, MakeProduct("imaging", 256),
                                    0.01 * (t + 1), 0);
            }
            break;
          case ProductCache::Role::kFollower: {
            Result<ProductCache::CachedProduct> shared =
                cache.Await(ticket);
            if (shared.ok() && !DecodeProduct(shared.value().bytes).ok()) {
              failures.fetch_add(1);
            }
            break;
          }
          case ProductCache::Role::kDisabled:
            failures.fetch_add(1);
            break;
        }
        if (i % 17 == 0) cache.InvalidateUnit(unit);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.bytes_cached(), options.capacity_bytes);
}

TEST(ProductCacheStressTest, FrontendCoalescingManyRounds) {
  std::atomic<int> runs{0};
  ProductCache::Options cache_options;
  cache_options.metric_prefix = "pc_stress_rounds";
  MiniPl pl(4, 4, &runs, nullptr, cache_options);
  constexpr int kRounds = 12;
  constexpr int kPerRound = 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<int64_t> ids;
    for (int i = 0; i < kPerRound; ++i) {
      ProcessingRequest request = pl.Request();
      // A fresh key every round: each round has exactly one miss.
      request.input_units = {{100 + round, 1}};
      Result<int64_t> id = pl.frontend->Submit(std::move(request));
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
    }
    for (int64_t id : ids) {
      EXPECT_EQ(pl.frontend->Wait(id).state, RequestState::kDelivered);
    }
  }
  // At most one execution per unique key, regardless of interleaving.
  EXPECT_EQ(runs.load(), kRounds);
}

// --- cluster-wide coherence ----------------------------------------------

// A product cached via node A must die cluster-wide when the unit it
// depends on is recalibrated through node B: the ClusterRunner wires every
// node's recalibration hook to broadcast invalidation into all caches.
TEST(ProductCacheClusterTest, RecalibrationOnOneNodeInvalidatesClusterWide) {
  cluster::ClusterFixtureOptions fixture_options;
  fixture_options.nodes = 2;
  cluster::ClusterFixture fixture(fixture_options);
  fixture.Start();
  std::vector<int64_t> units = fixture.LoadTelemetryEverywhere();
  ASSERT_FALSE(units.empty());
  int64_t unit_id = units[0];

  ProductCache* cache_a = fixture.runner().node(0)->product_cache();
  ProductCache* cache_b = fixture.runner().node(1)->product_cache();
  ASSERT_NE(cache_a, nullptr);
  ASSERT_NE(cache_b, nullptr);

  // The same derived product is cached on both nodes (each served it to
  // its own clients), plus an unrelated product on node A.
  analysis::AnalysisParams params;
  ProductCacheKey depends =
      MakeProductCacheKey("imaging", params, {{unit_id, 1}});
  ProductCacheKey unrelated =
      MakeProductCacheKey("imaging", params, {{999999, 1}});
  cache_a->CompleteSuccess(cache_a->Admit(depends), MakeProduct("imaging"), 1,
                           0);
  cache_a->CompleteSuccess(cache_a->Admit(unrelated), MakeProduct("imaging"),
                           1, 0);
  cache_b->CompleteSuccess(cache_b->Admit(depends), MakeProduct("imaging"), 1,
                           0);
  ASSERT_TRUE(cache_a->Peek(depends));
  ASSERT_TRUE(cache_b->Peek(depends));

  // Recalibrate the unit through node B only.
  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (double& g : v2.gain) g = 1.05;
  ASSERT_TRUE(calibrations.Register(v2).ok());
  auto recal = fixture.runner().node(1)->process()->RecalibrateUnit(
      fixture.SuperSession(1), unit_id, calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();

  // The broadcast reached every node: node A never serves stale bytes,
  // and products not touching the unit survive.
  EXPECT_FALSE(cache_a->Peek(depends)) << "stale entry survived on node A";
  EXPECT_FALSE(cache_b->Peek(depends));
  EXPECT_TRUE(cache_a->Peek(unrelated));
}

// Purging an analysis through one node drops entries sharing the ana id
// from every node's cache (same broadcast path, ana edition).
TEST(ProductCacheClusterTest, AnaPurgeBroadcastsAcrossNodes) {
  cluster::ClusterFixtureOptions fixture_options;
  fixture_options.nodes = 2;
  cluster::ClusterFixture fixture(fixture_options);
  fixture.Start();
  std::vector<int64_t> units = fixture.LoadTelemetryEverywhere();
  ASSERT_FALSE(units.empty());
  ProductCache* cache_a = fixture.runner().node(0)->product_cache();
  ASSERT_NE(cache_a, nullptr);

  // A private, purgeable analysis on node B. Cluster nodes load the same
  // data in the same order, so its ana id denotes the same analysis on
  // every node; node A has the derived product cached under that id.
  dm::Session session_b = fixture.SuperSession(1);
  dm::AnaRecord record;
  record.hle_id = 1;
  record.is_public = false;
  record.routine = "imaging";
  record.status = "done";
  Result<int64_t> ana = fixture.runner()
                            .node(1)
                            ->dm()
                            ->semantics()
                            .CreateAna(session_b, record);
  ASSERT_TRUE(ana.ok()) << ana.status().ToString();

  analysis::AnalysisParams params;
  ProductCacheKey key = MakeProductCacheKey("imaging", params, {{42, 1}});
  cache_a->CompleteSuccess(cache_a->Admit(key), MakeProduct("imaging"), 1,
                           ana.value());
  ASSERT_TRUE(cache_a->Peek(key));

  // Purge through node B: its listener fires per purged analysis and the
  // runner-wired broadcast must evict node A's entry.
  Result<int64_t> purged = fixture.runner().node(1)->process()->
      PurgeStaleAnalyses(session_b, 1e18);
  ASSERT_TRUE(purged.ok()) << purged.status().ToString();
  EXPECT_GE(purged.value(), 1);
  EXPECT_FALSE(cache_a->Peek(key)) << "purge did not reach node A's cache";
}

}  // namespace
}  // namespace hedc::pl
