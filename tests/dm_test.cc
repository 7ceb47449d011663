// DM component tests: schema, users, sessions, query spec, I/O layer,
// semantic layer, processes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "archive/compression.h"
#include "core/clock.h"
#include "core/content_hash.h"
#include "core/strings.h"
#include "dm/dm.h"
#include "dm/hedc_schema.h"
#include "dm/process_layer.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

namespace hedc::dm {
namespace {

class DmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(CreateFullSchema(&db_).ok());
    archives_.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                       std::make_unique<archive::DiskArchive>());
    archives_.Register({2, archive::ArchiveType::kTape, "tape0", true},
                       std::make_unique<archive::TapeArchive>(
                           std::make_unique<archive::DiskArchive>(), &clock_));
    Config config;
    config.Set("root.filename", "/hedc");
    mapper_ = std::make_unique<archive::NameMapper>(&db_, config);
    ASSERT_TRUE(mapper_->Init().ok());
    ASSERT_TRUE(mapper_->RegisterArchive(1, "disk", "raid1").ok());
    ASSERT_TRUE(mapper_->RegisterArchive(2, "tape", "tape0").ok());

    dm_ = std::make_unique<DataManager>("dm0", &db_, &archives_,
                                        mapper_.get(), &clock_,
                                        DataManager::Options{});

    // Users: alice (analyst), bob (browser), root (super).
    UserProfile analyst;
    analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
    alice_id_ = dm_->users().CreateUser("alice", "pw-a", analyst).value();
    bob_id_ = dm_->users().CreateUser("bob", "pw-b", UserProfile{}).value();
    UserProfile super_user;
    super_user.is_super = true;
    root_id_ = dm_->users().CreateUser("root", "pw-r", super_user).value();

    alice_ = SessionFor("alice", "pw-a", "10.0.0.1");
    bob_ = SessionFor("bob", "pw-b", "10.0.0.2");
    root_ = SessionFor("root", "pw-r", "10.0.0.3");
  }

  Session SessionFor(const std::string& user, const std::string& pw,
                     const std::string& ip) {
    UserProfile profile = dm_->users().Authenticate(user, pw).value();
    return dm_->sessions()
        .GetOrCreate(profile, ip, "cookie-" + user, SessionKind::kHle)
        .value();
  }

  VirtualClock clock_;
  db::Database db_;
  archive::ArchiveManager archives_;
  std::unique_ptr<archive::NameMapper> mapper_;
  std::unique_ptr<DataManager> dm_;
  int64_t alice_id_ = 0, bob_id_ = 0, root_id_ = 0;
  Session alice_, bob_, root_;
};

TEST_F(DmTest, SchemaIsIdempotent) {
  EXPECT_TRUE(CreateFullSchema(&db_).ok());
  EXPECT_NE(db_.GetTable("hle"), nullptr);
  EXPECT_NE(db_.GetTable("ana"), nullptr);
  EXPECT_NE(db_.GetTable("users"), nullptr);
}

TEST_F(DmTest, AuthenticationChecksPassword) {
  EXPECT_TRUE(dm_->users().Authenticate("alice", "pw-a").ok());
  EXPECT_TRUE(dm_->users()
                  .Authenticate("alice", "wrong")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(dm_->users()
                  .Authenticate("mallory", "x")
                  .status()
                  .IsPermissionDenied());
}

TEST_F(DmTest, AuthenticationCostsOneQueryOneUpdate) {
  int64_t q0 = db_.stats().queries.load();
  int64_t u0 = db_.stats().updates.load();
  ASSERT_TRUE(dm_->users().Authenticate("alice", "pw-a").ok());
  EXPECT_EQ(db_.stats().queries.load() - q0, 1);
  EXPECT_EQ(db_.stats().updates.load() - u0, 1);
}

TEST_F(DmTest, SessionCacheHitsByIpAndCookie) {
  UserProfile profile = dm_->users().GetProfile(alice_id_).value();
  int64_t created0 = dm_->sessions().sessions_created();
  Session s1 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck", SessionKind::kHle)
                   .value();
  Session s2 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck", SessionKind::kHle)
                   .value();
  EXPECT_EQ(s1.session_id, s2.session_id);
  EXPECT_EQ(dm_->sessions().sessions_created() - created0, 1);
  // Different kind -> different session (up to 3 per user, §5.3).
  Session s3 = dm_->sessions()
                   .GetOrCreate(profile, "1.2.3.4", "ck",
                                SessionKind::kAnalysis)
                   .value();
  EXPECT_NE(s1.session_id, s3.session_id);
}

TEST_F(DmTest, SessionCreationPaysSetupCost) {
  SessionManager::Options options;
  options.session_setup_cost = 777;
  SessionManager sessions(&clock_, options);
  Micros t0 = clock_.Now();
  UserProfile profile = AnonymousUser();
  ASSERT_TRUE(sessions.GetOrCreate(profile, "ip", "c", SessionKind::kHle)
                  .ok());
  EXPECT_EQ(clock_.Now() - t0, 777);
  // Cache hit: free.
  ASSERT_TRUE(sessions.GetOrCreate(profile, "ip", "c", SessionKind::kHle)
                  .ok());
  EXPECT_EQ(clock_.Now() - t0, 777);
}

TEST_F(DmTest, DefaultOptionsChargeNoSetupCost) {
  VirtualClock clock;
  DataManager dm("dm-default", &db_, &archives_, mapper_.get(), &clock,
                 DataManager::Options{});
  EXPECT_EQ(clock.Now(), 0);
  ASSERT_TRUE(dm.sessions()
                  .GetOrCreate(AnonymousUser(), "ip", "c", SessionKind::kHle)
                  .ok());
  EXPECT_EQ(clock.Now(), 0);
  EXPECT_EQ(dm.sessions().sessions_created(), 1);
}

TEST_F(DmTest, QuerySpecRendersSql) {
  QuerySpec spec("hle");
  spec.Select("hle_id")
      .Select("event_type")
      .Where("t_start", CondOp::kGe, db::Value::Real(10))
      .Where("event_type", CondOp::kEq, db::Value::Text("flare"))
      .OrderBy("t_start", true)
      .Limit(5);
  std::vector<db::Value> params;
  auto sql = spec.ToSql(&params);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql.value(),
            "SELECT hle_id, event_type FROM hle WHERE t_start >= ? AND "
            "event_type = ? ORDER BY t_start DESC LIMIT 5");
  ASSERT_EQ(params.size(), 2u);
}

TEST_F(DmTest, QuerySpecRendersJoin) {
  QuerySpec spec("catalog_members");
  spec.Join("hle", "catalog_members.hle_id", "hle.hle_id")
      .Select("catalog_members.hle_id")
      .Select("hle.is_public")
      .Where("catalog_members.catalog_id", CondOp::kEq, db::Value::Int(7))
      .OrderBy("catalog_members.hle_id");
  std::vector<db::Value> params;
  auto sql = spec.ToSql(&params);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql.value(),
            "SELECT catalog_members.hle_id, hle.is_public FROM "
            "catalog_members JOIN hle ON catalog_members.hle_id = hle.hle_id "
            "WHERE catalog_members.catalog_id = ? ORDER BY "
            "catalog_members.hle_id");
  ASSERT_EQ(params.size(), 1u);

  QuerySpec bad_join("catalog_members");
  bad_join.Join("hle", "catalog_members.hle_id", "hle.hle_id OR 1 = 1");
  EXPECT_FALSE(bad_join.ToSql(&params).ok());
  QuerySpec bad_qualifier("hle");
  bad_qualifier.Select("hle.a.b");
  EXPECT_FALSE(bad_qualifier.ToSql(&params).ok());
}

TEST_F(DmTest, QuerySpecRejectsInjection) {
  std::vector<db::Value> params;
  EXPECT_FALSE(QuerySpec("hle; DROP TABLE hle").ToSql(&params).ok());
  QuerySpec bad_field("hle");
  bad_field.Select("a, b FROM x");
  EXPECT_FALSE(bad_field.ToSql(&params).ok());
  QuerySpec bad_cond("hle");
  bad_cond.Where("x = 1 OR", CondOp::kEq, db::Value::Int(1));
  EXPECT_FALSE(bad_cond.ToSql(&params).ok());
}

TEST_F(DmTest, HleCrudAndVisibility) {
  HleRecord record;
  record.event_type = "flare";
  record.t_start = 100;
  record.t_end = 200;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, record).value();

  // Owner sees it; bob does not (private); root (super) does.
  EXPECT_TRUE(dm_->semantics().GetHle(alice_, hle_id).ok());
  EXPECT_TRUE(dm_->semantics().GetHle(bob_, hle_id).status().IsNotFound());
  EXPECT_TRUE(dm_->semantics().GetHle(root_, hle_id).ok());

  // Publish: now visible to bob.
  ASSERT_TRUE(dm_->semantics().SetHlePublic(alice_, hle_id, true).ok());
  EXPECT_TRUE(dm_->semantics().GetHle(bob_, hle_id).ok());

  // Only the owner (or super) may modify.
  EXPECT_TRUE(dm_->semantics()
                  .SetHlePublic(bob_, hle_id, false)
                  .IsPermissionDenied());
}

TEST_F(DmTest, ListHlesScopedBySessionView) {
  HleRecord mine;
  mine.event_type = "flare";
  mine.t_start = 10;
  dm_->semantics().CreateHle(alice_, mine).value();
  HleRecord pub = mine;
  pub.is_public = true;
  pub.t_start = 20;
  dm_->semantics().CreateHle(alice_, pub).value();

  auto bob_sees = dm_->semantics().ListHles(bob_, 0, 100);
  ASSERT_TRUE(bob_sees.ok());
  EXPECT_EQ(bob_sees.value().size(), 1u);  // only the public one
  auto alice_sees = dm_->semantics().ListHles(alice_, 0, 100);
  EXPECT_EQ(alice_sees.value().size(), 2u);
  auto root_sees = dm_->semantics().ListHles(root_, 0, 100);
  EXPECT_EQ(root_sees.value().size(), 2u);
}

TEST_F(DmTest, AnaRequiresVisibleHle) {
  AnaRecord ana;
  ana.hle_id = 424242;
  ana.routine = "imaging";
  EXPECT_TRUE(dm_->semantics().CreateAna(alice_, ana).status().IsNotFound());

  HleRecord hle;
  hle.event_type = "flare";
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  ana.hle_id = hle_id;
  EXPECT_TRUE(dm_->semantics().CreateAna(alice_, ana).ok());
  // Bob cannot attach analyses to alice's private HLE.
  EXPECT_TRUE(dm_->semantics().CreateAna(bob_, ana).status().IsNotFound());
}

TEST_F(DmTest, DeleteHleBlockedByAnalyses) {
  HleRecord hle;
  hle.event_type = "grb";
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "lightcurve";
  int64_t ana_id = dm_->semantics().CreateAna(alice_, ana).value();

  EXPECT_EQ(dm_->semantics().DeleteHle(alice_, hle_id).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(dm_->semantics().DeleteAna(alice_, ana_id).ok());
  EXPECT_TRUE(dm_->semantics().DeleteHle(alice_, hle_id).ok());
}

TEST_F(DmTest, AnaCreationWritesLineage) {
  HleRecord hle;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "imaging";
  int64_t ana_id = dm_->semantics().CreateAna(alice_, ana).value();
  auto sources = dm_->semantics().LineageSources(ana_id);
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources.value().size(), 1u);
  EXPECT_EQ(sources.value()[0], hle_id);
}

TEST_F(DmTest, FindExistingAnalysisDetectsOverlap) {
  HleRecord hle;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "imaging";
  ana.parameters = "pixels=64;t_end=2";
  ana.status = "done";
  ana.is_public = true;
  dm_->semantics().CreateAna(alice_, ana).value();

  auto found = dm_->semantics().FindExistingAnalysis(bob_, hle_id, "imaging",
                                                     "pixels=64;t_end=2");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value().has_value());
  auto missing = dm_->semantics().FindExistingAnalysis(
      bob_, hle_id, "imaging", "pixels=128;t_end=2");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_value());
}

TEST_F(DmTest, PrivateAnalysisNotOfferedToOthers) {
  HleRecord hle;
  hle.is_public = true;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  AnaRecord ana;
  ana.hle_id = hle_id;
  ana.routine = "histogram";
  ana.parameters = "bins=64";
  ana.status = "done";
  ana.is_public = false;  // private
  dm_->semantics().CreateAna(alice_, ana).value();
  auto found = dm_->semantics().FindExistingAnalysis(bob_, hle_id,
                                                     "histogram", "bins=64");
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(found.value().has_value());
}

TEST_F(DmTest, SupersedeVersionsHle) {
  HleRecord v1;
  v1.event_type = "flare";
  v1.calibration_version = 1;
  int64_t old_id = dm_->semantics().CreateHle(alice_, v1).value();
  HleRecord v2 = v1;
  v2.calibration_version = 2;
  int64_t new_id = dm_->semantics().SupersedeHle(alice_, old_id, v2).value();

  HleRecord old_record = dm_->semantics().GetHle(alice_, old_id).value();
  HleRecord new_record = dm_->semantics().GetHle(alice_, new_id).value();
  EXPECT_EQ(old_record.superseded_by, new_id);
  EXPECT_EQ(new_record.version, 2);
  EXPECT_EQ(new_record.superseded_by, 0);
}

TEST_F(DmTest, CatalogMembershipRules) {
  HleRecord hle;
  hle.is_public = true;
  int64_t hle_id = dm_->semantics().CreateHle(alice_, hle).value();
  int64_t catalog_id =
      dm_->semantics().CreateCatalog(alice_, "flares2002", "my flares", false)
          .value();
  ASSERT_TRUE(dm_->semantics().AddToCatalog(alice_, catalog_id, hle_id).ok());
  auto members = dm_->semantics().ListCatalogHles(alice_, catalog_id);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members.value().size(), 1u);
  // Bob cannot add to alice's catalog.
  EXPECT_TRUE(dm_->semantics()
                  .AddToCatalog(bob_, catalog_id, hle_id)
                  .IsPermissionDenied());
  // Duplicate catalog names are rejected.
  EXPECT_EQ(dm_->semantics()
                .CreateCatalog(alice_, "flares2002", "", false)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

// Members are listed in ascending hle_id order, and only those the
// session may see: another user's private HLE is indistinguishable from
// absent (§5.3), as is a member whose HLE row is gone.
TEST_F(DmTest, CatalogListingKeepsVisibilityRules) {
  HleRecord hle;
  hle.event_type = "flare";
  int64_t alice_private = dm_->semantics().CreateHle(alice_, hle).value();
  hle.is_public = true;
  int64_t alice_public = dm_->semantics().CreateHle(alice_, hle).value();
  int64_t bob_public = dm_->semantics().CreateHle(bob_, hle).value();
  int64_t catalog_id =
      dm_->semantics().CreateCatalog(alice_, "mixed", "", true).value();
  for (int64_t hle_id : {bob_public, alice_private, alice_public}) {
    ASSERT_TRUE(
        dm_->semantics().AddToCatalog(alice_, catalog_id, hle_id).ok());
  }

  auto list = [&](const Session& session) {
    return dm_->semantics().ListCatalogHles(session, catalog_id).value();
  };
  using Ids = std::vector<int64_t>;
  EXPECT_EQ(list(bob_), (Ids{alice_public, bob_public}));
  EXPECT_EQ(list(alice_), (Ids{alice_private, alice_public, bob_public}));
  EXPECT_EQ(list(root_), (Ids{alice_private, alice_public, bob_public}));

  // Deleted behind the semantic layer's back: the membership row stays.
  ASSERT_TRUE(db_.Execute("DELETE FROM hle WHERE hle_id = ?",
                          {db::Value::Int(alice_public)})
                  .ok());
  EXPECT_EQ(list(root_), (Ids{alice_private, bob_public}));
  EXPECT_EQ(list(bob_), (Ids{bob_public}));
}

// The listing is one catalog_members JOIN hle query however many members
// the catalog has. In one catalog: another user's private HLE (hidden
// from alice, listed for its owner and root) and a member whose HLE row
// was deleted behind the semantic layer's back (listed for no one).
TEST_F(DmTest, CatalogListingIsOneJoinOverDeletedAndPrivateMembers) {
  HleRecord hle;
  hle.event_type = "flare";
  int64_t bob_private = dm_->semantics().CreateHle(bob_, hle).value();
  hle.is_public = true;
  int64_t alice_public = dm_->semantics().CreateHle(alice_, hle).value();
  int64_t doomed = dm_->semantics().CreateHle(alice_, hle).value();
  int64_t catalog_id =
      dm_->semantics().CreateCatalog(bob_, "bobs", "", true).value();
  for (int64_t hle_id : {doomed, alice_public, bob_private}) {
    ASSERT_TRUE(dm_->semantics().AddToCatalog(bob_, catalog_id, hle_id).ok());
  }
  ASSERT_TRUE(db_.Execute("DELETE FROM hle WHERE hle_id = ?",
                          {db::Value::Int(doomed)})
                  .ok());

  auto list = [&](const Session& session) {
    int64_t queries = dm_->io().queries_executed();
    std::vector<int64_t> ids =
        dm_->semantics().ListCatalogHles(session, catalog_id).value();
    EXPECT_EQ(dm_->io().queries_executed() - queries, 1);
    return ids;
  };
  using Ids = std::vector<int64_t>;
  EXPECT_EQ(list(alice_), (Ids{alice_public}));
  EXPECT_EQ(list(bob_), (Ids{bob_private, alice_public}));
  EXPECT_EQ(list(root_), (Ids{bob_private, alice_public}));
}

auto Tie(const HleRecord& r) {
  return std::tie(r.hle_id, r.owner_id, r.is_public, r.event_type, r.t_start,
                  r.t_end, r.e_min, r.e_max, r.peak_rate, r.peak_energy,
                  r.photon_count, r.unit_id, r.calibration_version, r.version,
                  r.superseded_by, r.label, r.notes, r.created_time, r.source,
                  r.quality);
}

auto Tie(const AnaRecord& r) {
  return std::tie(r.ana_id, r.hle_id, r.owner_id, r.is_public, r.routine,
                  r.parameters, r.param_hash, r.status, r.quality, r.t_start,
                  r.t_end, r.e_min, r.e_max, r.photon_count, r.image_bytes,
                  r.log_excerpt, r.calibration_version, r.version,
                  r.superseded_by, r.created_time, r.duration_ms,
                  r.peak_value, r.pixels, r.notes);
}

// The schema is a moving target: this repository's hle and ana tables
// declare their columns in another order than CreateRhessiSchema, plus a
// column the DM does not know. Records still decode by column name.
class PermutedSchemaTest : public DmTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(
                       "CREATE TABLE hle (quality REAL, source TEXT, "
                       "created_time REAL, notes TEXT, label TEXT, "
                       "superseded_by INT, version INT, "
                       "calibration_version INT, unit_id INT, "
                       "photon_count INT, extra_tag TEXT, "
                       "peak_energy REAL, peak_rate REAL, e_max REAL, "
                       "e_min REAL, t_end REAL, t_start REAL, "
                       "event_type TEXT, is_public BOOL, "
                       "owner_id INT NOT NULL, hle_id INT PRIMARY KEY)")
                    .ok());
    ASSERT_TRUE(db_.Execute(
                       "CREATE TABLE ana (notes TEXT, pixels INT, "
                       "ana_id INT PRIMARY KEY, peak_value REAL, "
                       "routine TEXT, duration_ms REAL, created_time REAL, "
                       "superseded_by INT, extra_score REAL, version INT, "
                       "calibration_version INT, log_excerpt TEXT, "
                       "image_bytes INT, photon_count INT, e_max REAL, "
                       "e_min REAL, t_end REAL, t_start REAL, quality REAL, "
                       "status TEXT, param_hash INT, parameters TEXT, "
                       "is_public BOOL, owner_id INT NOT NULL, "
                       "hle_id INT NOT NULL)")
                    .ok());
    DmTest::SetUp();
  }

  // INSERT with a column list, so each value lands in its named column.
  void InsertNamed(
      const std::string& table,
      const std::vector<std::pair<std::string, db::Value>>& columns) {
    std::string names, markers;
    std::vector<db::Value> values;
    for (const auto& [name, value] : columns) {
      names += (names.empty() ? "" : ", ") + name;
      markers += markers.empty() ? "?" : ", ?";
      values.push_back(value);
    }
    auto r = db_.Execute(
        "INSERT INTO " + table + " (" + names + ") VALUES (" + markers + ")",
        values);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  HleRecord InsertHle(int64_t hle_id, double t_start) {
    HleRecord r;
    r.hle_id = hle_id;
    r.owner_id = alice_id_;
    r.is_public = true;
    r.event_type = "flare";
    r.t_start = t_start;
    r.t_end = t_start + 40.5;
    r.e_min = 3.25;
    r.e_max = 250.75;
    r.peak_rate = 812.5;
    r.peak_energy = 17.125;
    r.photon_count = 123456;
    r.unit_id = 77;
    r.calibration_version = 3;
    r.version = 2;
    r.superseded_by = 0;
    r.label = "label-" + std::to_string(hle_id);
    r.notes = "notes";
    r.created_time = 1000.5;
    r.source = "import";
    r.quality = 0.875;
    InsertNamed("hle", {{"extra_tag", db::Value::Text("unknown to the DM")},
                        {"hle_id", db::Value::Int(r.hle_id)},
                        {"owner_id", db::Value::Int(r.owner_id)},
                        {"is_public", db::Value::Bool(r.is_public)},
                        {"event_type", db::Value::Text(r.event_type)},
                        {"t_start", db::Value::Real(r.t_start)},
                        {"t_end", db::Value::Real(r.t_end)},
                        {"e_min", db::Value::Real(r.e_min)},
                        {"e_max", db::Value::Real(r.e_max)},
                        {"peak_rate", db::Value::Real(r.peak_rate)},
                        {"peak_energy", db::Value::Real(r.peak_energy)},
                        {"photon_count", db::Value::Int(r.photon_count)},
                        {"unit_id", db::Value::Int(r.unit_id)},
                        {"calibration_version",
                         db::Value::Int(r.calibration_version)},
                        {"version", db::Value::Int(r.version)},
                        {"superseded_by", db::Value::Int(r.superseded_by)},
                        {"label", db::Value::Text(r.label)},
                        {"notes", db::Value::Text(r.notes)},
                        {"created_time", db::Value::Real(r.created_time)},
                        {"source", db::Value::Text(r.source)},
                        {"quality", db::Value::Real(r.quality)}});
    return r;
  }

  AnaRecord InsertAna(int64_t ana_id, int64_t hle_id,
                      const std::string& parameters) {
    AnaRecord r;
    r.ana_id = ana_id;
    r.hle_id = hle_id;
    r.owner_id = alice_id_;
    r.is_public = false;
    r.routine = "imaging";
    r.parameters = parameters;
    r.param_hash = SemanticLayer::HashParams(r.routine, r.parameters);
    r.status = "done";
    r.quality = 0.5;
    r.t_start = 10.25;
    r.t_end = 20.5;
    r.e_min = 6;
    r.e_max = 12.5;
    r.photon_count = 4321;
    r.image_bytes = 2048;
    r.log_excerpt = "ok";
    r.calibration_version = 4;
    r.version = 3;
    r.superseded_by = 0;
    r.created_time = 2000.25;
    r.duration_ms = 31.5;
    r.peak_value = 99.75;
    r.pixels = 64;
    r.notes = "ana-" + std::to_string(ana_id);
    InsertNamed("ana", {{"ana_id", db::Value::Int(r.ana_id)},
                        {"hle_id", db::Value::Int(r.hle_id)},
                        {"owner_id", db::Value::Int(r.owner_id)},
                        {"is_public", db::Value::Bool(r.is_public)},
                        {"routine", db::Value::Text(r.routine)},
                        {"parameters", db::Value::Text(r.parameters)},
                        {"param_hash", db::Value::Int(r.param_hash)},
                        {"status", db::Value::Text(r.status)},
                        {"quality", db::Value::Real(r.quality)},
                        {"t_start", db::Value::Real(r.t_start)},
                        {"t_end", db::Value::Real(r.t_end)},
                        {"e_min", db::Value::Real(r.e_min)},
                        {"e_max", db::Value::Real(r.e_max)},
                        {"photon_count", db::Value::Int(r.photon_count)},
                        {"image_bytes", db::Value::Int(r.image_bytes)},
                        {"log_excerpt", db::Value::Text(r.log_excerpt)},
                        {"calibration_version",
                         db::Value::Int(r.calibration_version)},
                        {"version", db::Value::Int(r.version)},
                        {"superseded_by", db::Value::Int(r.superseded_by)},
                        {"created_time", db::Value::Real(r.created_time)},
                        {"duration_ms", db::Value::Real(r.duration_ms)},
                        {"peak_value", db::Value::Real(r.peak_value)},
                        {"pixels", db::Value::Int(r.pixels)},
                        {"notes", db::Value::Text(r.notes)},
                        {"extra_score", db::Value::Real(-1)}});
    return r;
  }
};

TEST_F(PermutedSchemaTest, HleRecordsDecodeByName) {
  HleRecord first = InsertHle(900, 100.5);
  HleRecord second = InsertHle(901, 300.25);

  auto got = dm_->semantics().GetHle(alice_, first.hle_id);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Tie(got.value()), Tie(first));

  auto listed = dm_->semantics().ListHles(alice_, 0, 1000);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().size(), 2u);
  EXPECT_EQ(Tie(listed.value()[0]), Tie(first));
  EXPECT_EQ(Tie(listed.value()[1]), Tie(second));
}

TEST_F(PermutedSchemaTest, AnaRecordsDecodeByName) {
  HleRecord hle = InsertHle(900, 100.5);
  AnaRecord first = InsertAna(500, hle.hle_id, "pixels=64");
  AnaRecord second = InsertAna(501, hle.hle_id, "pixels=128");

  auto got = dm_->semantics().GetAna(alice_, second.ana_id);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Tie(got.value()), Tie(second));

  auto listed = dm_->semantics().ListAnalyses(alice_, hle.hle_id);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed.value().size(), 2u);
  EXPECT_EQ(Tie(listed.value()[0]), Tie(first));
  EXPECT_EQ(Tie(listed.value()[1]), Tie(second));

  auto found = dm_->semantics().FindExistingAnalysis(alice_, hle.hle_id,
                                                     "imaging", "pixels=128");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  ASSERT_TRUE(found.value().has_value());
  EXPECT_EQ(Tie(*found.value()), Tie(second));

  // The private analyses stay private under the permuted layout too.
  EXPECT_TRUE(dm_->semantics().GetAna(bob_, first.ana_id).status()
                  .IsNotFound());
  EXPECT_TRUE(dm_->semantics().ListAnalyses(bob_, hle.hle_id).value()
                  .empty());
}

TEST_F(DmTest, IoLayerFileRoundTripViaNameMapping) {
  std::vector<uint8_t> data = {9, 8, 7};
  ASSERT_TRUE(dm_->io().WriteItemFile(555, 1, "raw", data).ok());
  auto read = dm_->io().ReadItemFile(555);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), data);
  ASSERT_TRUE(dm_->io().DeleteItemFile(555).ok());
  EXPECT_FALSE(dm_->io().ReadItemFile(555).ok());
}

TEST_F(DmTest, IoLayerRoutesTables) {
  db::Database other;
  ASSERT_TRUE(other.Execute("CREATE TABLE special (a INT)").ok());
  ASSERT_TRUE(other.Execute("INSERT INTO special VALUES (7)").ok());
  // The default database has the table too, so a write that ignored the
  // route would succeed there.
  ASSERT_TRUE(db_.Execute("CREATE TABLE special (a INT)").ok());
  dm_->io().RouteTable("special", &other);
  QuerySpec spec("special");
  auto rs = dm_->io().Query(spec);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().num_rows(), 1u);
  EXPECT_EQ(dm_->io().DatabaseFor("special"), &other);
  EXPECT_EQ(dm_->io().DatabaseFor("hle"), &db_);

  auto inserted = dm_->io().Update("SPECIAL", "INSERT INTO special VALUES (?)",
                                   {db::Value::Int(8)});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  auto in_other = other.Execute("SELECT a FROM special WHERE a = 8");
  ASSERT_TRUE(in_other.ok());
  EXPECT_EQ(in_other.value().num_rows(), 1u);
  auto in_default = db_.Execute("SELECT COUNT(*) FROM special");
  ASSERT_TRUE(in_default.ok());
  EXPECT_EQ(in_default.value().rows[0][0].AsInt(), 0);
}

TEST_F(DmTest, OperationalLogPersisted) {
  ASSERT_TRUE(dm_->LogOperational("test", "hello world").ok());
  auto rs = db_.Execute("SELECT COUNT(*) FROM op_logs WHERE component = "
                        "'test'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows[0][0].AsInt(), 1);
}

// --- process layer -----------------------------------------------------

// The I/O layer runs every statement straight on its database, from as
// many threads as the reactor has loops: point reads and usage_stats-style
// audit inserts on one DataManager must neither fail nor lose a row.
class DmStressTest : public DmTest {};

TEST_F(DmStressTest, ConcurrentIoLayerReadsAndAuditInserts) {
  constexpr int kThreads = 8;
  constexpr int kInsertsPerThread = 150;
  std::atomic<int> errors{0};
  std::atomic<int> missing{0};
  int64_t updates_before = dm_->io().updates_executed();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      IoLayer& io = dm_->io();
      for (int i = 0; i < kInsertsPerThread; ++i) {
        int64_t id = int64_t{t} * kInsertsPerThread + i;
        auto inserted = io.Update(
            "usage_stats", "INSERT INTO usage_stats VALUES (?, ?, ?, ?, ?)",
            {db::Value::Int(id), db::Value::Real(i * 0.5),
             db::Value::Int(t), db::Value::Text("/catalog"),
             db::Value::Real(0.25)});
        if (!inserted.ok()) ++errors;
        // This thread's own row is visible to its next read.
        auto own = io.Query(QuerySpec("usage_stats")
                                .Where("stat_id", CondOp::kEq,
                                       db::Value::Int(id)));
        if (!own.ok()) {
          ++errors;
        } else if (own.value().num_rows() != 1) {
          ++missing;
        }
        auto count = io.Query(QuerySpec("usage_stats").CountOnly());
        if (!count.ok()) ++errors;
        auto hles = io.Query(QuerySpec("hle").Limit(5));
        if (!hles.ok()) ++errors;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(missing.load(), 0);
  auto total = db_.Execute("SELECT COUNT(*) FROM usage_stats");
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.value().rows[0][0].AsInt(), kThreads * kInsertsPerThread);
  EXPECT_EQ(dm_->io().updates_executed() - updates_before,
            kThreads * kInsertsPerThread);
}

class ProcessTest : public DmTest {
 protected:
  void SetUp() override {
    DmTest::SetUp();
    process_ = std::make_unique<ProcessLayer>(dm_.get(), /*raw_archive=*/1);
    // Synthetic telemetry with guaranteed events.
    rhessi::TelemetryOptions options;
    options.duration_sec = 1200;
    options.flares_per_hour = 15;
    options.saa_per_hour = 0;
    options.seed = 11;
    telemetry_ = rhessi::GenerateTelemetry(options);
    // One unit covering the whole observation so it contains events.
    units_ = rhessi::SegmentIntoUnits(telemetry_.photons, 10000000, 1);
  }

  std::unique_ptr<ProcessLayer> process_;
  rhessi::Telemetry telemetry_;
  std::vector<rhessi::RawDataUnit> units_;
};

TEST_F(ProcessTest, LoadRawUnitCreatesEverything) {
  ASSERT_FALSE(units_.empty());
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().hle_ids.size(), 0u);

  // Raw unit tuple exists.
  auto unit_count = db_.Execute("SELECT COUNT(*) FROM raw_units");
  EXPECT_EQ(unit_count.value().rows[0][0].AsInt(), 1);
  // File retrievable through name mapping.
  EXPECT_TRUE(dm_->io().ReadItemFile(report.value().unit_id).ok());
  // Wavelet view stored.
  EXPECT_TRUE(dm_->io()
                  .ReadItemFile(ProcessLayer::ViewItemId(
                      report.value().unit_id))
                  .ok());
  // HLEs are in the public standard catalog, visible to bob.
  auto catalog =
      dm_->semantics().GetCatalogByName(bob_, "standard");
  ASSERT_TRUE(catalog.ok());
  auto members = dm_->semantics().ListCatalogHles(
      bob_, catalog.value().catalog_id);
  EXPECT_EQ(members.value().size(), report.value().hle_ids.size());
}

TEST_F(ProcessTest, LoadRejectsGarbageWithoutSideEffects) {
  const rhessi::RawDataUnit& unit = units_[0];
  ASSERT_GT(unit.photons.size(), 100u);
  // Photon times that step backwards once.
  rhessi::RawDataUnit unsorted = unit;
  std::swap(unsorted.photons[50].time_sec, unsorted.photons[60].time_sec);
  // A header that declares one photon more than the payload holds.
  archive::FitsFile miscounted = unit.ToFits();
  miscounted.primary().SetCard(
      "NPHOTONS", std::to_string(unit.photons.size() + 1), "photon count");
  // A photon payload cut short inside an intact container.
  archive::FitsFile truncated = unit.ToFits();
  for (archive::FitsHdu& hdu : truncated.hdus()) {
    if (hdu.name == "PHOTONS") hdu.data.resize(hdu.data.size() - 7);
  }
  // Two photons, the last at t = 2e6 s: detection bins from t = 0 would
  // take ~48 MB for a few hundred bytes.
  rhessi::RawDataUnit late;
  late.unit_id = unit.unit_id;
  late.photons.resize(2);
  late.photons[0].time_sec = 0.5;
  late.photons[1].time_sec = 2e6;
  late.t_start = 0.5;
  late.t_stop = 2e6;
  const std::pair<const char*, std::vector<uint8_t>> inputs[] = {
      {"garbage", {1, 2, 3, 4}},
      {"unsorted", unsorted.Pack()},
      {"miscounted", miscounted.Serialize()},
      {"truncated", truncated.Serialize()},
      {"late", late.Pack()},
      {"hzip", archive::Compress(unit.Pack())}};
  for (const auto& [name, packed] : inputs) {
    SCOPED_TRACE(name);
    Result<DataLoadReport> report = process_->LoadRawUnit(root_, packed);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kCorruption)
        << report.status().ToString();
    auto unit_count = db_.Execute("SELECT COUNT(*) FROM raw_units");
    EXPECT_EQ(unit_count.value().rows[0][0].AsInt(), 0);
    auto hle_count = db_.Execute("SELECT COUNT(*) FROM hle");
    EXPECT_EQ(hle_count.value().rows[0][0].AsInt(), 0);
    EXPECT_TRUE(archives_.Get(1)->List().empty());
    EXPECT_FALSE(dm_->io().ReadItemFile(unit.unit_id).ok());
  }
}

TEST_F(ProcessTest, RelocationMovesFilesAndNamesOnly) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  int64_t unit_id = report.value().unit_id;
  auto before = mapper_->Resolve(unit_id, archive::NameType::kFilename);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().archive_id, 1);

  ASSERT_TRUE(process_->RelocateItems({unit_id}, 1, 2, "archived").ok());
  auto after = mapper_->Resolve(unit_id, archive::NameType::kFilename);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().archive_id, 2);
  // Data still readable (now from tape).
  EXPECT_TRUE(dm_->io().ReadItemFile(unit_id).ok());
}

TEST_F(ProcessTest, RecalibrationSupersedesHles) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report.value().hle_ids.size(), 0u);

  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  for (int d = 0; d < rhessi::kNumCollimators; ++d) v2.gain[d] = 1.02;
  ASSERT_TRUE(calibrations.Register(v2).ok());

  auto recal = process_->RecalibrateUnit(root_, report.value().unit_id,
                                         calibrations, 2);
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();
  EXPECT_GT(recal.value().hle_ids.size(), 0u);

  // Old HLEs are marked superseded; unit tuple carries the new version.
  auto rs = db_.Execute(
      "SELECT COUNT(*) FROM hle WHERE superseded_by > 0");
  EXPECT_GT(rs.value().rows[0][0].AsInt(), 0);
  auto unit = db_.Execute(
      "SELECT calibration_version FROM raw_units WHERE unit_id = ?",
      {db::Value::Int(report.value().unit_id)});
  EXPECT_EQ(unit.value().rows[0][0].AsInt(), 2);
}

TEST_F(ProcessTest, GenerateCatalogGroupsByType) {
  auto report = process_->LoadRawUnit(root_, units_[0].Pack());
  ASSERT_TRUE(report.ok());
  auto catalog_id =
      process_->GenerateCatalog(root_, "all_flares", "flare");
  ASSERT_TRUE(catalog_id.ok()) << catalog_id.status().ToString();
  auto members =
      dm_->semantics().ListCatalogHles(root_, catalog_id.value());
  ASSERT_TRUE(members.ok());
  EXPECT_GT(members.value().size(), 0u);
  // Idempotent: regeneration does not duplicate members.
  size_t count = members.value().size();
  ASSERT_TRUE(process_->GenerateCatalog(root_, "all_flares", "flare").ok());
  EXPECT_EQ(dm_->semantics()
                .ListCatalogHles(root_, catalog_id.value())
                .value()
                .size(),
            count);
}

// Digest of every value of a result set, bit for bit, in row order.
uint64_t RowsDigest(const db::ResultSet& rs) {
  uint64_t h = kFnv1a64OffsetBasis;
  for (const db::Row& row : rs.rows) {
    for (const db::Value& v : row) {
      uint8_t type = static_cast<uint8_t>(v.type());
      h = Fnv1a64(&type, 1, h);
      switch (v.type()) {
        case db::ValueType::kInt: {
          int64_t i = v.int_value();
          h = Fnv1a64(&i, sizeof(i), h);
          break;
        }
        case db::ValueType::kReal: {
          double d = v.real_value();
          h = Fnv1a64(&d, sizeof(d), h);
          break;
        }
        case db::ValueType::kBool: {
          uint8_t b = v.bool_value() ? 1 : 0;
          h = Fnv1a64(&b, 1, h);
          break;
        }
        case db::ValueType::kText:
          h = Fnv1a64(v.text(), h);
          break;
        case db::ValueType::kBlob:
          h = Fnv1a64(v.blob().data(), v.blob().size(), h);
          break;
        case db::ValueType::kNull:
          break;
      }
    }
  }
  return h;
}

// Golden ingest: the units perfbench's ingest workload loads (second-seed
// telemetry, 200k photons per unit, every unit after the first starting
// well after t = 0) must keep, per unit, the digests in
// tests/data/ingest_golden.txt of its view file bytes, of every field of
// its HLE rows and of its raw_units tuple. Run with HEDC_UPDATE_GOLDEN=1
// to rewrite the file after an intended change to what a load derives.
TEST_F(DmTest, IngestGoldenDigests) {
  ProcessLayer process(dm_.get(), /*raw_archive_id=*/1);
  rhessi::TelemetryOptions options;
  options.duration_sec = 7200;
  options.flares_per_hour = 9;
  options.saa_per_hour = 0;
  options.seed = 5 * 1000003 + 17;
  std::vector<rhessi::RawDataUnit> units = rhessi::SegmentIntoUnits(
      rhessi::GenerateTelemetry(options).photons, 200000, 1);
  ASSERT_GT(units.size(), 10u);
  ASSERT_GT(units[1].t_start, 0.0);

  std::map<std::string, std::string> actual;
  auto hex = [](uint64_t h) {
    return StrFormat("%016llx", static_cast<unsigned long long>(h));
  };
  for (const rhessi::RawDataUnit& unit : units) {
    Result<DataLoadReport> report = process.LoadRawUnit(root_, unit.Pack());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const db::Value id = db::Value::Int(unit.unit_id);
    const std::string prefix =
        StrFormat("unit%02lld/", static_cast<long long>(unit.unit_id));
    Result<std::vector<uint8_t>> view =
        dm_->io().ReadItemFile(ProcessLayer::ViewItemId(unit.unit_id));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    actual[prefix + "view"] =
        hex(Fnv1a64(view.value().data(), view.value().size()));
    auto hles =
        db_.Execute("SELECT * FROM hle WHERE unit_id = ? ORDER BY hle_id", {id});
    ASSERT_TRUE(hles.ok()) << hles.status().ToString();
    actual[prefix + "hle_rows"] = std::to_string(hles.value().num_rows());
    actual[prefix + "hle"] = hex(RowsDigest(hles.value()));
    auto tuple =
        db_.Execute("SELECT * FROM raw_units WHERE unit_id = ?", {id});
    ASSERT_TRUE(tuple.ok()) << tuple.status().ToString();
    ASSERT_EQ(tuple.value().num_rows(), 1u);
    actual[prefix + "raw_units"] = hex(RowsDigest(tuple.value()));
  }

  const std::string path =
      std::string(HEDC_TEST_DATA_DIR) + "/ingest_golden.txt";
  if (std::getenv("HEDC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    for (const auto& [name, digest] : actual) {
      out << name << ' ' << digest << '\n';
    }
    ASSERT_TRUE(out.good()) << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::map<std::string, std::string> expected;
  std::string name, digest;
  while (in >> name >> digest) expected[name] = digest;
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [case_name, want] : expected) {
    auto it = actual.find(case_name);
    ASSERT_NE(it, actual.end()) << case_name;
    EXPECT_EQ(it->second, want) << case_name;
  }
}

}  // namespace
}  // namespace hedc::dm
