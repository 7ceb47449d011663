// StreamCorder client tests: caches, local clone, progressive views,
// local analysis + upload, cordlets, synoptic search.
#include <gtest/gtest.h>

#include "client/cache.h"
#include "client/streamcorder.h"
#include "client/synoptic.h"
#include "hedc_fixture.h"
#include "wavelet/codec.h"

namespace hedc::client {
namespace {

TEST(PathCacheTest, StaticPathFromAttributes) {
  ObjectAttributes attrs{"image", 42, 3 * 86400.0};
  EXPECT_EQ(PathCache::PathFor(attrs), "image/3/42");
  // Same attributes, same path: the cache structure is predetermined.
  EXPECT_EQ(PathCache::PathFor(attrs), PathCache::PathFor(attrs));
}

TEST(PathCacheTest, PutGetEvict) {
  PathCache cache;
  ObjectAttributes attrs{"raw", 7, 0};
  EXPECT_FALSE(cache.Get(attrs).ok());
  EXPECT_EQ(cache.misses(), 1);
  ASSERT_TRUE(cache.Put(attrs, {1, 2, 3}).ok());
  auto got = cache.Get(attrs);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 3u);
  EXPECT_EQ(cache.hits(), 1);
  ASSERT_TRUE(cache.Evict(attrs).ok());
  EXPECT_FALSE(cache.Contains(attrs));
}

TEST(PathCacheTest, CapacityEnforcedFifo) {
  PathCache cache(/*capacity_bytes=*/100);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        cache.Put({"raw", i, 0}, std::vector<uint8_t>(30, 1)).ok());
  }
  EXPECT_LE(cache.bytes_cached(), 100u);
  // Earliest entries evicted first.
  EXPECT_FALSE(cache.Contains({"raw", 0, 0}));
  EXPECT_TRUE(cache.Contains({"raw", 9, 0}));
}

TEST(DbCacheTest, PutGetWithLocalDbReferences) {
  DbCache cache;
  ObjectAttributes attrs{"view", 1001, 0};
  ASSERT_TRUE(cache.Put(attrs, {5, 5, 5}).ok());
  EXPECT_TRUE(cache.Contains(attrs));
  auto got = cache.Get(attrs);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 3u);
  // Replacement is idempotent.
  ASSERT_TRUE(cache.Put(attrs, {9}).ok());
  EXPECT_EQ(cache.Get(attrs).value().size(), 1u);
}

TEST(DbCacheTest, MetadataCaching) {
  DbCache cache;
  ASSERT_TRUE(cache.PutMetadata("hle_7_label", "X-class flare").ok());
  auto got = cache.GetMetadata("hle_7_label");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "X-class flare");
  EXPECT_TRUE(cache.GetMetadata("missing").status().IsNotFound());
  // Overwrite.
  ASSERT_TRUE(cache.PutMetadata("hle_7_label", "M-class").ok());
  EXPECT_EQ(cache.GetMetadata("hle_7_label").value(), "M-class");
}

TEST(DbCacheTest, LruEvictionUnderCapacity) {
  DbCache cache(/*capacity_bytes=*/100);
  ASSERT_TRUE(cache.Put({"a", 1, 0}, std::vector<uint8_t>(40, 1)).ok());
  ASSERT_TRUE(cache.Put({"a", 2, 0}, std::vector<uint8_t>(40, 1)).ok());
  // Touch item 1 so item 2 becomes the LRU victim.
  ASSERT_TRUE(cache.Get({"a", 1, 0}).ok());
  ASSERT_TRUE(cache.Put({"a", 3, 0}, std::vector<uint8_t>(40, 1)).ok());
  EXPECT_LE(cache.bytes_cached(), 100u);
  EXPECT_TRUE(cache.Contains({"a", 1, 0}));
  EXPECT_FALSE(cache.Contains({"a", 2, 0}));
}

class StreamCorderTest : public ::testing::Test {
 protected:
  StreamCorderTest() : stack_(/*seed=*/5) {
    session_ = stack_.Login("alice", "pw-a", "10.0.0.1");
  }

  StreamCorder MakeClient(int cache_version) {
    StreamCorder::Options options;
    options.cache_version = cache_version;
    return StreamCorder(stack_.node.dm(), session_, options);
  }

  testing::HedcStack stack_;
  dm::Session session_;
};

TEST_F(StreamCorderTest, FetchCachesRawUnits) {
  StreamCorder client = MakeClient(2);
  auto first = client.FetchRawUnit(1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(client.server_fetches(), 1);
  auto second = client.FetchRawUnit(1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(client.server_fetches(), 1);  // served from cache
  EXPECT_EQ(first.value(), second.value());
}

TEST_F(StreamCorderTest, BothCacheVersionsWork) {
  for (int version : {1, 2}) {
    StreamCorder client = MakeClient(version);
    ASSERT_TRUE(client.FetchRawUnit(1).ok());
    ASSERT_TRUE(client.FetchRawUnit(1).ok());
    EXPECT_EQ(client.server_fetches(), 1) << "cache v" << version;
  }
}

TEST_F(StreamCorderTest, ProgressiveViewApproximation) {
  StreamCorder client = MakeClient(2);
  auto coarse = client.FetchViewApproximation(1, 0.05);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  auto full = client.FetchViewApproximation(1, 1.0);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(coarse.value().size(), full.value().size());
  // The coarse view approximates the full one; refinement reduces error.
  double coarse_err = wavelet::RelativeL2Error(full.value(), coarse.value());
  auto mid = client.FetchViewApproximation(1, 0.5);
  ASSERT_TRUE(mid.ok());
  double mid_err = wavelet::RelativeL2Error(full.value(), mid.value());
  EXPECT_LE(mid_err, coarse_err + 1e-9);
  // Only one server fetch for all three fractions (client-side decode).
  EXPECT_EQ(client.server_fetches(), 1);
}

TEST_F(StreamCorderTest, ProgressiveDeliveryRefinesCoarseToFine) {
  StreamCorder client = MakeClient(2);
  std::vector<size_t> callback_levels;
  std::vector<size_t> callback_bins;
  auto progressive = client.FetchViewProgressive(
      1, [&](const std::vector<double>& bins, size_t level) {
        callback_levels.push_back(level);
        callback_bins.push_back(bins.size());
      });
  ASSERT_TRUE(progressive.ok()) << progressive.status().ToString();
  const auto& view = progressive.value();

  // Coarse-to-fine: several refinements, levels strictly increasing,
  // every refinement renders the full-width signal.
  EXPECT_GE(view.refinements, 2u);
  EXPECT_EQ(view.refinements, callback_levels.size());
  for (size_t i = 1; i < callback_levels.size(); ++i) {
    EXPECT_LT(callback_levels[i - 1], callback_levels[i]);
  }
  for (size_t bins : callback_bins) EXPECT_EQ(bins, view.bins.size());

  // First paint is a small fraction of the full-fidelity payload.
  EXPECT_GT(view.first_paint_bytes, 0u);
  EXPECT_LT(view.first_paint_bytes * 5, view.total_bytes);
  EXPECT_LE(view.first_paint_seconds, view.full_seconds);

  // The final refinement carries every retained coefficient and matches
  // the one-shot full-fidelity fetch.
  EXPECT_EQ(view.final_info.coeffs_decoded, view.final_info.coeffs_total);
  // One server fetch so far: refinement slices the fetched stream
  // client-side instead of re-requesting.
  EXPECT_EQ(client.server_fetches(), 1);
  auto full = client.FetchViewApproximation(1, 1.0);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(view.bins.size(), full.value().size());
  for (size_t i = 0; i < view.bins.size(); ++i) {
    EXPECT_NEAR(view.bins[i], full.value()[i], 1e-6);
  }
}

TEST_F(StreamCorderTest, LocalAnalysisAndUpload) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  StreamCorder client = MakeClient(2);
  analysis::AnalysisParams params;
  params.SetInt("bins", 16);
  auto product = client.AnalyzeLocally(1, "histogram", params);
  ASSERT_TRUE(product.ok()) << product.status().ToString();

  auto ana_id = client.UploadResult(stack_.hle_ids[0], product.value(),
                                    params);
  ASSERT_TRUE(ana_id.ok()) << ana_id.status().ToString();
  // The uploaded analysis is in the server metadata and its image is
  // retrievable.
  auto record =
      stack_.node.dm()->semantics().GetAna(session_, ana_id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().routine, "histogram");
  EXPECT_TRUE(stack_.node.dm()->io()
                  .ReadItemFile(2000000000 + ana_id.value())
                  .ok());
}

TEST_F(StreamCorderTest, LocalAnalysisUsesProductCache) {
  StreamCorder client = MakeClient(2);
  analysis::AnalysisParams params;
  params.SetInt("bins", 16);
  auto first = client.AnalyzeLocally(1, "histogram", params);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(client.product_cache().entry_count(), 1u);

  // Identical re-analysis decodes the cached product instead of
  // recomputing; parameter insertion order must not matter.
  analysis::AnalysisParams reordered;
  reordered.Set("bins", "16");
  auto second = client.AnalyzeLocally(1, "histogram", reordered);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().metadata, first.value().metadata);
  MetricsRegistry* metrics = MetricsRegistry::Default();
  EXPECT_GE(metrics->GetCounter("client.product_cache.hits")->Value(), 1);

  // Different parameters miss.
  analysis::AnalysisParams other;
  other.SetInt("bins", 32);
  ASSERT_TRUE(client.AnalyzeLocally(1, "histogram", other).ok());
  EXPECT_EQ(client.product_cache().entry_count(), 2u);
}

TEST_F(StreamCorderTest, MirrorHleForOfflineWork) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  StreamCorder client = MakeClient(2);
  ASSERT_TRUE(client.MirrorHle(stack_.hle_ids[0]).ok());
  auto local = client.LocalHle(stack_.hle_ids[0]);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(local.value().hle_id, stack_.hle_ids[0]);
}

TEST_F(StreamCorderTest, FullRepositoryMirror) {
  StreamCorder client = MakeClient(2);
  auto mirrored = client.MirrorRepository();
  ASSERT_TRUE(mirrored.ok()) << mirrored.status().ToString();
  EXPECT_EQ(mirrored.value(),
            static_cast<int64_t>(stack_.hle_ids.size()));
  // Every event is readable from the local clone without the server.
  for (int64_t hle : stack_.hle_ids) {
    EXPECT_TRUE(client.LocalHle(hle).ok()) << "HLE " << hle;
  }
  // Raw-unit tuples and catalogs mirrored; files cached.
  auto units = client.local_dm().database()->Execute(
      "SELECT COUNT(*) FROM raw_units");
  EXPECT_GE(units.value().rows[0][0].AsInt(), 1);
  auto catalogs = client.local_dm().database()->Execute(
      "SELECT COUNT(*) FROM catalogs WHERE name = 'standard'");
  EXPECT_EQ(catalogs.value().rows[0][0].AsInt(), 1);
  EXPECT_TRUE(client.cache().Contains({"raw", 1, 0}));
  // Idempotent: a second mirror copies nothing new.
  auto again = client.MirrorRepository();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0);
}

class TestCordlet : public Cordlet {
 public:
  explicit TestCordlet(std::string name, std::vector<std::string> types)
      : name_(std::move(name)), types_(std::move(types)) {}
  std::string name() const override { return name_; }
  std::vector<std::string> data_types() const override { return types_; }

 private:
  std::string name_;
  std::vector<std::string> types_;
};

TEST_F(StreamCorderTest, CordletsAreDataTypeSensitive) {
  StreamCorder client = MakeClient(1);
  client.RegisterCordlet(
      std::make_unique<TestCordlet>("imaging-view", std::vector<std::string>{
                                                        "ana", "view"}));
  client.RegisterCordlet(std::make_unique<TestCordlet>(
      "event-browser", std::vector<std::string>{"hle"}));
  EXPECT_EQ(client.ModulesFor("hle").size(), 1u);
  EXPECT_EQ(client.ModulesFor("view").size(), 1u);
  EXPECT_EQ(client.ModulesFor("spectra").size(), 0u);
  EXPECT_EQ(client.ModulesFor("ana")[0]->name(), "imaging-view");
}

TEST(SynopticSearchTest, EntryPathRoundTrip) {
  std::string path = SynopticSearch::EntryPath(12345.5, "phoenix2");
  double t = 0;
  std::string instrument;
  ASSERT_TRUE(SynopticSearch::ParseEntryPath(path, &t, &instrument));
  EXPECT_DOUBLE_EQ(t, 12345.5);
  EXPECT_EQ(instrument, "phoenix2");
  EXPECT_FALSE(SynopticSearch::ParseEntryPath("other/file", &t, &instrument));
}

TEST(SynopticSearchTest, ParallelSearchGroupsByTime) {
  VirtualClock clock;
  archive::DiskArchive soho_storage, phoenix_storage;
  for (double t : {100.0, 200.0, 300.0}) {
    soho_storage.Write(SynopticSearch::EntryPath(t, "soho"), {1});
  }
  for (double t : {150.0, 250.0}) {
    phoenix_storage.Write(SynopticSearch::EntryPath(t, "phoenix"), {1});
  }
  SynopticSearch search;
  search.AddRemoteArchive("soho", &soho_storage);
  search.AddRemoteArchive("phoenix", &phoenix_storage);
  SynopticResult result = search.Search(120, 260);
  ASSERT_EQ(result.hits.size(), 3u);
  EXPECT_DOUBLE_EQ(result.hits[0].observation_time, 150);
  EXPECT_DOUBLE_EQ(result.hits[1].observation_time, 200);
  EXPECT_DOUBLE_EQ(result.hits[2].observation_time, 250);
  EXPECT_TRUE(result.unavailable.empty());
}

TEST(SynopticSearchTest, OfflineArchiveIsBestEffort) {
  VirtualClock clock;
  auto soho_inner = std::make_unique<archive::DiskArchive>();
  soho_inner->Write(SynopticSearch::EntryPath(100, "soho"), {1});
  archive::RemoteArchive soho(std::move(soho_inner), &clock);
  archive::DiskArchive phoenix;
  phoenix.Write(SynopticSearch::EntryPath(110, "phoenix"), {1});

  SynopticSearch search;
  search.AddRemoteArchive("soho", &soho);
  search.AddRemoteArchive("phoenix", &phoenix);
  soho.set_online(false);
  SynopticResult result = search.Search(0, 1000);
  ASSERT_EQ(result.hits.size(), 1u);  // phoenix still answers
  EXPECT_EQ(result.hits[0].instrument, "phoenix");
  ASSERT_EQ(result.unavailable.size(), 1u);
  EXPECT_EQ(result.unavailable[0], "soho");
}

}  // namespace
}  // namespace hedc::client
