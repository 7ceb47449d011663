// The DM's decoded raw-unit cache: LRU and version semantics of
// dm::RawUnitCache, and DataManager::ReadRawUnit as /analyze and /approx
// use it on a full stack.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/routine.h"
#include "core/metrics.h"
#include "core/strings.h"
#include "dm/raw_unit_cache.h"
#include "hedc_fixture.h"
#include "rhessi/calibration.h"
#include "web/http.h"

namespace hedc {
namespace {

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Default()->GetCounter(name)->Value();
}

std::shared_ptr<const rhessi::RawDataUnit> MakeUnit(int64_t unit_id,
                                                    int version,
                                                    size_t photons) {
  auto unit = std::make_shared<rhessi::RawDataUnit>();
  unit->unit_id = unit_id;
  unit->calibration_version = version;
  unit->photons.resize(photons);
  return unit;
}

TEST(RawUnitCacheTest, HitsOnlyAtTheCachedVersion) {
  dm::RawUnitCache cache;
  int64_t hits0 = CounterValue("dm.raw_unit_cache.hits");
  int64_t misses0 = CounterValue("dm.raw_unit_cache.misses");
  EXPECT_EQ(cache.Find(7, 1), nullptr);
  auto v1 = MakeUnit(7, 1, 100);
  cache.Insert(7, v1);
  EXPECT_EQ(cache.Find(7, 1), v1);
  EXPECT_EQ(cache.Find(7, 2), nullptr);
  // A decode at a newer version replaces the entry.
  auto v2 = MakeUnit(7, 2, 100);
  cache.Insert(7, v2);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Find(7, 2), v2);
  EXPECT_EQ(cache.Find(7, 1), nullptr);
  EXPECT_EQ(cache.bytes(), dm::RawUnitCache::UnitBytes(*v2));
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.hits") - hits0, 2);
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.misses") - misses0, 3);
}

TEST(RawUnitCacheTest, EvictsLeastRecentlyUsedWithinBudget) {
  auto a = MakeUnit(1, 1, 1000);
  auto b = MakeUnit(2, 1, 1000);
  auto c = MakeUnit(3, 1, 1000);
  size_t unit_bytes = dm::RawUnitCache::UnitBytes(*a);
  dm::RawUnitCache cache(2 * unit_bytes);
  int64_t evictions0 = CounterValue("dm.raw_unit_cache.evictions");
  Gauge* gauge =
      MetricsRegistry::Default()->GetGauge("dm.raw_unit_cache.bytes");
  int64_t gauge0 = gauge->Value();
  cache.Insert(1, a);
  cache.Insert(2, b);
  ASSERT_EQ(cache.Find(1, 1), a);  // 2 is now least recently used
  cache.Insert(3, c);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Find(2, 1), nullptr);
  EXPECT_EQ(cache.Find(1, 1), a);
  EXPECT_EQ(cache.Find(3, 1), c);
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.evictions") - evictions0, 1);
  EXPECT_EQ(gauge->Value() - gauge0, static_cast<int64_t>(2 * unit_bytes));
  // An evicted unit stays valid for whoever holds it.
  EXPECT_EQ(b->photons.size(), 1000u);

  cache.set_budget_bytes(unit_bytes / 2);  // smaller than any unit
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(gauge->Value(), gauge0);
}

// --- through the stack -----------------------------------------------------

class RawUnitCacheStackTest : public ::testing::Test {
 protected:
  RawUnitCacheStackTest() {
    web::HttpResponse login = stack_.node.web()->Dispatch(
        web::MakeRequest("/login?user=alice&password=pw-a"));
    EXPECT_EQ(login.status_code, 200);
    cookie_ = login.set_cookies["hedc_session"];
  }

  web::HttpResponse Analyze(int64_t hle_id, const std::string& query) {
    return stack_.node.web()->Dispatch(web::MakeRequest(
        StrFormat("/analyze?hle_id=%lld&%s", static_cast<long long>(hle_id),
                  query.c_str()),
        "10.0.0.1", cookie_));
  }

  // The ANA id a completed /analyze page links to.
  static int64_t AnaIdOf(const web::HttpResponse& page) {
    size_t at = page.body.find("/ana?id=");
    if (at == std::string::npos) return 0;
    return std::atoll(page.body.c_str() + at + 8);
  }

  void CorruptItem(int64_t item_id, size_t offset) {
    auto name =
        stack_.node.mapper()->Resolve(item_id, archive::NameType::kFilename);
    ASSERT_TRUE(name.ok());
    archive::Archive* arch =
        stack_.node.archives()->Get(name.value().archive_id);
    ASSERT_NE(arch, nullptr);
    auto bytes = stack_.node.dm()->io().ReadItemFile(item_id);
    ASSERT_TRUE(bytes.ok());
    std::vector<uint8_t> damaged = bytes.value();
    ASSERT_LT(offset, damaged.size());
    damaged[offset] ^= 0x5a;
    ASSERT_TRUE(arch->Write(name.value().rel_path, damaged).ok());
  }

  testing::HedcStack stack_;
  std::string cookie_;
};

TEST_F(RawUnitCacheStackTest, SecondFreshAnalysisDecodesNothing) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  web::HttpResponse first = Analyze(hle_id, "routine=lightcurve&bin_sec=2");
  ASSERT_EQ(first.status_code, 200) << first.body;
  int64_t misses = CounterValue("dm.raw_unit_cache.misses");
  int64_t hits = CounterValue("dm.raw_unit_cache.hits");
  // A different routine: the PL executes it afresh.
  web::HttpResponse second = Analyze(hle_id, "routine=histogram&bins=16");
  ASSERT_EQ(second.status_code, 200) << second.body;
  EXPECT_NE(AnaIdOf(second), AnaIdOf(first));
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.misses") - misses, 0);
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.hits") - hits, 1);
  // The counters and the byte gauge are on /metrics.
  web::HttpResponse metrics =
      stack_.node.web()->Dispatch(web::MakeRequest("/metrics"));
  ASSERT_EQ(metrics.status_code, 200);
  for (const char* name : {"raw_unit_cache_hits", "raw_unit_cache_misses",
                           "raw_unit_cache_evictions",
                           "raw_unit_cache_bytes"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
  }
}

TEST_F(RawUnitCacheStackTest, RecalibratedUnitIsDecodedAtItsNewVersion) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  int64_t unit_id = stack_.node.dm()->semantics()
                        .GetHle(stack_.import_session, hle_id)
                        .value()
                        .unit_id;
  ASSERT_EQ(Analyze(hle_id, "routine=histogram&bins=16").status_code, 200);
  ASSERT_EQ(stack_.node.dm()->raw_unit_cache().entries(), 1u);

  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (double& g : v2.gain) g = 1.05;
  ASSERT_TRUE(calibrations.Register(v2).ok());
  Result<dm::DataLoadReport> recal = stack_.node.process()->RecalibrateUnit(
      stack_.import_session, unit_id, calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();
  ASSERT_FALSE(recal.value().hle_ids.empty());

  int64_t misses = CounterValue("dm.raw_unit_cache.misses");
  web::HttpResponse page =
      Analyze(recal.value().hle_ids[0], "routine=histogram&bins=16");
  ASSERT_EQ(page.status_code, 200) << page.body;
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.misses") - misses, 1);
  std::shared_ptr<const rhessi::RawDataUnit> cached =
      stack_.node.dm()->raw_unit_cache().Find(unit_id, 2);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(stack_.node.dm()->raw_unit_cache().entries(), 1u);

  // The new ANA and its product-cache lineage name version 2.
  int64_t ana_id = AnaIdOf(page);
  ASSERT_GT(ana_id, 0);
  Result<db::ResultSet> ana = stack_.node.db()->Execute(
      "SELECT calibration_version FROM ana WHERE ana_id = ?",
      {db::Value::Int(ana_id)});
  ASSERT_TRUE(ana.ok());
  ASSERT_EQ(ana.value().num_rows(), 1u);
  EXPECT_EQ(ana.value().Get(0, "calibration_version").AsInt(), 2);
  Result<db::ResultSet> lineage = stack_.node.db()->Execute(
      "SELECT calibration_versions FROM product_cache WHERE ana_id = ?",
      {db::Value::Int(ana_id)});
  ASSERT_TRUE(lineage.ok());
  ASSERT_EQ(lineage.value().num_rows(), 1u);
  EXPECT_EQ(lineage.value().Get(0, "calibration_versions").AsText(), "2");
}

TEST_F(RawUnitCacheStackTest, CorruptUnitAnswers404AndCachesNothing) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  int64_t unit_id = stack_.node.dm()->semantics()
                        .GetHle(stack_.import_session, hle_id)
                        .value()
                        .unit_id;
  // One flipped byte deep in the photon payload: only the CRC sees it.
  auto size = stack_.node.dm()->io().ReadItemFile(unit_id);
  ASSERT_TRUE(size.ok());
  CorruptItem(unit_id, size.value().size() * 3 / 4);
  web::HttpResponse page = Analyze(hle_id, "routine=histogram&bins=16");
  EXPECT_EQ(page.status_code, 404) << page.body;
  EXPECT_EQ(stack_.node.dm()->raw_unit_cache().entries(), 0u);
  EXPECT_EQ(stack_.node.dm()->raw_unit_cache().bytes(), 0u);
  // Still not cached: every retry reads and checks the file again.
  int64_t misses = CounterValue("dm.raw_unit_cache.misses");
  EXPECT_EQ(Analyze(hle_id, "routine=histogram&bins=16").status_code, 404);
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.misses") - misses, 1);
}

TEST_F(RawUnitCacheStackTest, ApproxFallbackReusesTheDecodedUnit) {
  ASSERT_FALSE(stack_.hle_ids.empty());
  int64_t hle_id = stack_.hle_ids[0];
  int64_t unit_id = stack_.node.dm()->semantics()
                        .GetHle(stack_.import_session, hle_id)
                        .value()
                        .unit_id;
  ASSERT_EQ(Analyze(hle_id, "routine=histogram&bins=16").status_code, 200);
  // No usable view: /approx falls back to the raw photons.
  CorruptItem(dm::ProcessLayer::ViewItemId(unit_id), 0);
  int64_t misses = CounterValue("dm.raw_unit_cache.misses");
  int64_t hits = CounterValue("dm.raw_unit_cache.hits");
  web::HttpResponse approx = stack_.node.web()->Dispatch(web::MakeRequest(
      StrFormat("/approx?unit=%lld&agg=count", static_cast<long long>(unit_id))));
  ASSERT_EQ(approx.status_code, 200) << approx.body;
  EXPECT_NE(approx.body.find("\"method\":\"reservoir\""), std::string::npos)
      << approx.body;
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.misses") - misses, 0);
  EXPECT_EQ(CounterValue("dm.raw_unit_cache.hits") - hits, 1);
}

// Four analysts run fresh analyses over three units while the cache holds
// one: entries are evicted while requests still hold them. Every analysis
// completes and stores exactly the product the routine gives on the
// unit's photons. Run under ThreadSanitizer in the stress lane.
TEST(RawUnitCacheStressTest, FreshAnalysesWhileEntriesAreEvicted) {
  testing::HedcStack stack(/*telemetry_seed=*/5, /*telemetry_duration=*/1200,
                           /*photons_per_unit=*/30000);
  // The largest HLE of each of the first three units, and the unit itself.
  std::map<int64_t, dm::HleRecord> hle_of_unit;
  for (int64_t hle_id : stack.hle_ids) {
    dm::HleRecord hle =
        stack.node.dm()->semantics().GetHle(stack.import_session, hle_id)
            .value();
    if (hle.unit_id > 3) continue;
    auto [it, inserted] = hle_of_unit.try_emplace(hle.unit_id, hle);
    if (!inserted && hle.photon_count > it->second.photon_count) {
      it->second = hle;
    }
  }
  ASSERT_EQ(hle_of_unit.size(), 3u);
  std::map<int64_t, rhessi::RawDataUnit> units;
  size_t largest = 0;
  for (const auto& [unit_id, hle] : hle_of_unit) {
    ASSERT_GT(hle.photon_count, 0) << "unit " << unit_id;
    rhessi::RawDataUnit unit =
        rhessi::RawDataUnit::Unpack(
            stack.node.dm()->io().ReadItemFile(unit_id).value())
            .value();
    largest = std::max(largest, dm::RawUnitCache::UnitBytes(unit));
    units.emplace(unit_id, std::move(unit));
  }
  stack.node.dm()->raw_unit_cache().set_budget_bytes(largest);

  web::HttpResponse login = stack.node.web()->Dispatch(
      web::MakeRequest("/login?user=alice&password=pw-a"));
  ASSERT_EQ(login.status_code, 200);
  const std::string cookie = login.set_cookies["hedc_session"];

  constexpr int kThreads = 4;
  constexpr int kPerThread = 9;
  struct Done {
    int64_t unit_id = 0;
    int64_t ana_id = 0;
    std::string routine;
    int run = 0;
  };
  std::vector<std::vector<Done>> done(kThreads);
  std::atomic<int> failures{0};
  int64_t evictions0 = CounterValue("dm.raw_unit_cache.evictions");
  std::vector<std::thread> analysts;
  for (int t = 0; t < kThreads; ++t) {
    analysts.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t unit_id = 1 + (t + i) % 3;
        const char* routine = i % 2 == 0 ? "histogram" : "lightcurve";
        int run = t * kPerThread + i;
        web::HttpResponse page = stack.node.web()->Dispatch(web::MakeRequest(
            StrFormat("/analyze?hle_id=%lld&routine=%s&run_id=r%d",
                      static_cast<long long>(hle_of_unit.at(unit_id).hle_id),
                      routine, run),
            "10.0.0.1", cookie));
        size_t at = page.body.find("/ana?id=");
        if (page.status_code != 200 || at == std::string::npos) {
          ADD_FAILURE() << page.status_code << " " << page.body;
          ++failures;
          continue;
        }
        done[t].push_back(Done{unit_id, std::atoll(page.body.c_str() + at + 8),
                               routine, run});
      }
    });
  }
  for (std::thread& analyst : analysts) analyst.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(CounterValue("dm.raw_unit_cache.evictions") - evictions0, 0);
  EXPECT_LE(stack.node.dm()->raw_unit_cache().bytes(), largest);

  // Each stored image is the routine's product on the unit's photons.
  auto registry = analysis::CreateStandardRegistry();
  for (const std::vector<Done>& per_thread : done) {
    for (const Done& d : per_thread) {
      const dm::HleRecord& hle = hle_of_unit.at(d.unit_id);
      analysis::AnalysisParams params;
      params.Set("run_id", StrFormat("r%d", d.run));
      params.SetDouble("t_start", hle.t_start);
      params.SetDouble("t_end", hle.t_end);
      Result<analysis::AnalysisProduct> expected =
          registry->Get(d.routine)->Run(units.at(d.unit_id).photons, params);
      ASSERT_TRUE(expected.ok());
      Result<std::vector<uint8_t>> stored =
          stack.node.dm()->io().ReadItemFile(2000000000 + d.ana_id);
      ASSERT_TRUE(stored.ok()) << "ana " << d.ana_id;
      EXPECT_EQ(stored.value(), expected.value().rendered)
          << d.routine << " on unit " << d.unit_id;
    }
  }
}

}  // namespace
}  // namespace hedc
