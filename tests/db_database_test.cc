// End-to-end executor tests: DDL, DML, planner index selection,
// aggregation, transactions, pools, blob store.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <thread>

#include "core/metrics.h"
#include "db/blob_store.h"
#include "db/checkpoint.h"
#include "db/database.h"

namespace hedc::db {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE hle ("
                            "hle_id INT PRIMARY KEY, "
                            "start_time REAL, peak_energy REAL, "
                            "event_type TEXT, owner TEXT, "
                            "is_public BOOL)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX hle_by_id ON hle (hle_id) USING HASH")
            .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX hle_by_time ON hle (start_time)").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db_.Execute("INSERT INTO hle VALUES (?, ?, ?, ?, ?, ?)",
                      {Value::Int(i), Value::Real(i * 10.0),
                       Value::Real(3.0 + i % 20),
                       Value::Text(i % 3 == 0 ? "flare" : "quiet"),
                       Value::Text(i % 2 == 0 ? "alice" : "bob"),
                       Value::Bool(i % 4 == 0)})
              .ok());
    }
  }

  Database db_;
};

TEST_F(DatabaseTest, PointQueryViaHashIndex) {
  int64_t scans_before = db_.stats().full_scans.load();
  auto r = db_.Execute("SELECT * FROM hle WHERE hle_id = 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "hle_id").AsInt(), 42);
  EXPECT_EQ(db_.stats().full_scans.load(), scans_before);  // index used
}

TEST_F(DatabaseTest, ResultSetReadsColumnsByName) {
  auto r = db_.Execute(
      "SELECT event_type, hle_id, start_time FROM hle WHERE hle_id = 42");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ResultSet& rs = r.value();
  // Case-insensitive lookup of the projected column's ordinal.
  EXPECT_EQ(rs.ColumnIndex("hle_id"), std::optional<size_t>(1));
  EXPECT_EQ(rs.ColumnIndex("Start_Time"), std::optional<size_t>(2));
  EXPECT_EQ(rs.ColumnIndex("EVENT_TYPE"), std::optional<size_t>(0));
  EXPECT_EQ(rs.ColumnIndex("peak_energy"), std::nullopt);  // not projected
  EXPECT_EQ(rs.ColumnIndex("no_such_column"), std::nullopt);

  EXPECT_EQ(rs.Get(0, "HLE_ID").AsInt(), 42);
  EXPECT_DOUBLE_EQ(rs.Get(0, "start_time").AsReal(), 420.0);
  EXPECT_EQ(rs.Get(0, "Event_Type").AsText(), "flare");
  EXPECT_EQ(&rs.Get(0, "hle_id"), &rs.rows[0][1]);  // by reference
  EXPECT_TRUE(rs.Get(0, "no_such_column").is_null());
  EXPECT_TRUE(rs.Get(1, "hle_id").is_null());  // row out of range
  EXPECT_TRUE(ResultSet{}.Get(0, "hle_id").is_null());
}

TEST_F(DatabaseTest, RangeQueryViaBTree) {
  int64_t scans_before = db_.stats().full_scans.load();
  auto r = db_.Execute(
      "SELECT hle_id FROM hle WHERE start_time >= 100 AND start_time <= 200");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 11u);
  EXPECT_EQ(db_.stats().full_scans.load(), scans_before);
}

TEST_F(DatabaseTest, FullScanWhenNoIndex) {
  int64_t scans_before = db_.stats().full_scans.load();
  auto r = db_.Execute("SELECT * FROM hle WHERE owner = 'alice'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 50u);
  EXPECT_EQ(db_.stats().full_scans.load(), scans_before + 1);
}

TEST_F(DatabaseTest, ResidualPredicateApplied) {
  auto r = db_.Execute(
      "SELECT * FROM hle WHERE start_time >= 0 AND owner = 'bob' "
      "AND event_type = 'flare'");
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    EXPECT_EQ(r.value().Get(i, "owner").AsText(), "bob");
    EXPECT_EQ(r.value().Get(i, "event_type").AsText(), "flare");
  }
}

TEST_F(DatabaseTest, OrderByAndLimit) {
  auto r = db_.Execute(
      "SELECT hle_id FROM hle ORDER BY start_time DESC LIMIT 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().Get(0, "hle_id").AsInt(), 99);
  EXPECT_EQ(r.value().Get(1, "hle_id").AsInt(), 98);
}

TEST_F(DatabaseTest, CountStar) {
  auto r = db_.Execute("SELECT COUNT(*) FROM hle WHERE event_type = 'flare'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 34);  // i % 3 == 0 for 0..99
}

TEST_F(DatabaseTest, CountOnEmptyResultIsZero) {
  auto r = db_.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 12345");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 0);
}

TEST_F(DatabaseTest, MinMaxSumAvg) {
  auto r = db_.Execute(
      "SELECT MIN(start_time), MAX(start_time), SUM(start_time), "
      "AVG(start_time) FROM hle");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Row& row = r.value().rows[0];
  EXPECT_DOUBLE_EQ(row[0].AsReal(), 0.0);
  EXPECT_DOUBLE_EQ(row[1].AsReal(), 990.0);
  EXPECT_DOUBLE_EQ(row[2].AsReal(), 49500.0);
  EXPECT_DOUBLE_EQ(row[3].AsReal(), 495.0);
}

TEST_F(DatabaseTest, GroupByCount) {
  auto r = db_.Execute(
      "SELECT event_type, COUNT(*) FROM hle GROUP BY event_type");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  int64_t total = 0;
  for (const Row& row : r.value().rows) total += row[1].AsInt();
  EXPECT_EQ(total, 100);
}

TEST_F(DatabaseTest, MixedAggregatesOverDistinctColumns) {
  // Aggregates over several different columns in one statement, streamed
  // from the heap scan and over the matches of an index covering every
  // row (the materialized path).
  for (const char* where : {"", " WHERE start_time >= 0"}) {
    auto r = db_.Execute(
        std::string("SELECT COUNT(*), SUM(start_time), AVG(peak_energy), "
                    "MIN(hle_id), MAX(start_time) FROM hle") +
        where);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const Row& row = r.value().rows[0];
    EXPECT_EQ(row[0].AsInt(), 100);
    EXPECT_DOUBLE_EQ(row[1].AsReal(), 49500.0);
    // peak_energy = 3 + i % 20 -> five full cycles of 0..19.
    EXPECT_NEAR(row[2].AsReal(), 3.0 + 9.5, 1e-9);
    EXPECT_EQ(row[3].AsInt(), 0);
    EXPECT_DOUBLE_EQ(row[4].AsReal(), 990.0);
  }
}

TEST_F(DatabaseTest, CountColumnSkipsNulls) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE n (a INT, b INT)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO n VALUES (?, ?)",
                            {Value::Int(i),
                             i % 2 == 0 ? Value::Null() : Value::Int(i)})
                    .ok());
  }
  // Streamed, then materialized (ORDER BY sorts the matches first).
  for (const char* order : {"", " ORDER BY a"}) {
    auto r = db_.Execute(
        std::string("SELECT COUNT(*), COUNT(b), SUM(b), AVG(b) FROM n") +
        order);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const Row& row = r.value().rows[0];
    EXPECT_EQ(row[0].AsInt(), 10);
    EXPECT_EQ(row[1].AsInt(), 5);            // NULLs not counted
    EXPECT_EQ(row[2].AsInt(), 1 + 3 + 5 + 7 + 9);
    EXPECT_NEAR(row[3].AsReal(), 25.0 / 5, 1e-9);  // mean of non-NULL
  }
}

TEST_F(DatabaseTest, GroupByWithMultipleAggregates) {
  // Streamed, then materialized from an index covering every row.
  for (const char* where : {"", " WHERE start_time >= 0"}) {
    auto r = db_.Execute(
        std::string("SELECT owner, COUNT(*), SUM(start_time), "
                    "MAX(peak_energy) FROM hle") +
        where + " GROUP BY owner");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().num_rows(), 2u);
    for (const Row& row : r.value().rows) {
      EXPECT_EQ(row[1].AsInt(), 50);
      // alice holds the evens (sum 10*(0+2+..+98)), bob the odds.
      const bool alice = row[0].AsText() == "alice";
      EXPECT_DOUBLE_EQ(row[2].AsReal(), alice ? 24500.0 : 25000.0);
      // alice holds even i: max(i % 20) = 18; bob's odds reach 19.
      EXPECT_DOUBLE_EQ(row[3].AsReal(), alice ? 21.0 : 22.0);
    }
  }
}

TEST_F(DatabaseTest, GroupByMultipleColumns) {
  auto r = db_.Execute(
      "SELECT owner, event_type, COUNT(*) FROM hle "
      "GROUP BY owner, event_type");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 4u);  // 2 owners x 2 event types
  int64_t total = 0;
  for (const Row& row : r.value().rows) total += row[2].AsInt();
  EXPECT_EQ(total, 100);
}

TEST_F(DatabaseTest, NonGroupedSelectColumnRejected) {
  auto r = db_.Execute(
      "SELECT owner, COUNT(*) FROM hle GROUP BY event_type");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("GROUP BY"), std::string::npos);
}

TEST_F(DatabaseTest, UpdateAffectsMatchingRows) {
  auto r = db_.Execute(
      "UPDATE hle SET is_public = TRUE WHERE owner = 'alice'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected_rows, 50);
  // All 25 pre-public rows (i % 4 == 0) are even, hence alice's; the
  // update flips the remaining 25 alice rows, bob keeps none.
  auto check =
      db_.Execute("SELECT COUNT(*) FROM hle WHERE is_public = TRUE");
  EXPECT_EQ(check.value().rows[0][0].AsInt(), 50);
}

TEST_F(DatabaseTest, UpdateMaintainsIndexes) {
  ASSERT_TRUE(
      db_.Execute("UPDATE hle SET start_time = 5000 WHERE hle_id = 10").ok());
  auto r = db_.Execute("SELECT hle_id FROM hle WHERE start_time >= 4999");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "hle_id").AsInt(), 10);
  // Old key position must be gone.
  auto old_pos = db_.Execute(
      "SELECT COUNT(*) FROM hle WHERE start_time = 100 AND hle_id = 10");
  EXPECT_EQ(old_pos.value().rows[0][0].AsInt(), 0);
}

TEST_F(DatabaseTest, DeleteRemovesRows) {
  auto r = db_.Execute("DELETE FROM hle WHERE event_type = 'flare'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().affected_rows, 34);
  auto count = db_.Execute("SELECT COUNT(*) FROM hle");
  EXPECT_EQ(count.value().rows[0][0].AsInt(), 66);
}

TEST_F(DatabaseTest, PrimaryKeyUniquenessEnforced) {
  auto r = db_.Execute("INSERT INTO hle VALUES (5, 0, 0, 'x', 'y', FALSE)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DatabaseTest, UnknownTableAndColumnErrors) {
  EXPECT_EQ(db_.Execute("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Execute("SELECT nope FROM hle").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.Execute("SELECT * FROM hle WHERE ghost = 1").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, TransactionCommit) {
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO hle VALUES (500, 1, 1, 'x', 'y', FALSE)").ok());
  ASSERT_TRUE(db_.Commit().ok());
  auto r = db_.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 500");
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, TransactionRollbackUndoesAllOps) {
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO hle VALUES (600, 1, 1, 'x', 'y', FALSE)").ok());
  ASSERT_TRUE(
      db_.Execute("UPDATE hle SET owner = 'mallory' WHERE hle_id = 1").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM hle WHERE hle_id = 2").ok());
  ASSERT_TRUE(db_.Rollback().ok());

  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 600")
                .value().rows[0][0].AsInt(), 0);
  EXPECT_EQ(db_.Execute("SELECT owner FROM hle WHERE hle_id = 1")
                .value().rows[0][0].AsText(), "bob");
  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM hle WHERE hle_id = 2")
                .value().rows[0][0].AsInt(), 1);
  // Indexes must also be restored.
  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM hle WHERE start_time = 20")
                .value().rows[0][0].AsInt(), 1);
}

TEST_F(DatabaseTest, NestedBeginFails) {
  ASSERT_TRUE(db_.Begin().ok());
  EXPECT_FALSE(db_.Begin().ok());
  ASSERT_TRUE(db_.Rollback().ok());
}

TEST_F(DatabaseTest, CommitWithoutBeginFails) {
  EXPECT_FALSE(db_.Commit().ok());
  EXPECT_FALSE(db_.Rollback().ok());
}

TEST_F(DatabaseTest, ConcurrentReadersAreSafe) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &failures] {
      for (int i = 0; i < 200; ++i) {
        auto r = db_.Execute("SELECT COUNT(*) FROM hle WHERE start_time >= 0");
        if (!r.ok() || r.value().rows[0][0].AsInt() != 100) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(DatabaseTest, PreparedStatementReexecution) {
  auto stmt = ParseSql("SELECT owner FROM hle WHERE hle_id = ?");
  ASSERT_TRUE(stmt.ok());
  for (int i = 0; i < 5; ++i) {
    auto r = db_.ExecuteStatement(*stmt.value(), {Value::Int(i)});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().num_rows(), 1u);
    EXPECT_EQ(r.value().rows[0][0].AsText(), i % 2 == 0 ? "alice" : "bob");
  }
}

TEST(BlobStoreTest, PutGetDelete) {
  Database db;
  BlobStore store(&db, /*chunk_size=*/16);
  ASSERT_TRUE(store.Init().ok());
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE(store.Put("raw_unit_1", data).ok());
  auto got = store.Get("raw_unit_1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), data);
  ASSERT_TRUE(store.Delete("raw_unit_1").ok());
  EXPECT_TRUE(store.Get("raw_unit_1").status().IsNotFound());
}

TEST(BlobStoreTest, OverwriteReplacesContent) {
  Database db;
  BlobStore store(&db, 8);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("x", {1, 2, 3}).ok());
  ASSERT_TRUE(store.Put("x", {9}).ok());
  auto got = store.Get("x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), std::vector<uint8_t>({9}));
}

TEST(BlobStoreTest, EmptyBlob) {
  Database db;
  BlobStore store(&db);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Put("empty", {}).ok());
  auto got = store.Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
}

TEST_F(DatabaseTest, StaleIndexEntriesAreCountedNotReturned) {
  // Plant a dangling entry: the b-tree claims a row id the heap does
  // not hold (as a crash between index and heap maintenance could).
  Table* table = db_.GetTable("hle");
  ASSERT_NE(table, nullptr);
  BTreeIndex* btree = table->mutable_btree("hle_by_time");
  ASSERT_NE(btree, nullptr);
  btree->Insert(Value::Real(500.0), /*row_id=*/999999);

  int64_t stale_before = db_.stats().stale_index_entries.load();
  auto r = db_.Execute("SELECT hle_id FROM hle WHERE start_time = 500.0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only the real row (hle_id 50) comes back; the dangling id is
  // skipped and counted instead of aborting the query.
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "hle_id").AsInt(), 50);
  EXPECT_EQ(db_.stats().stale_index_entries.load(), stale_before + 1);

  // DML through the same index path also skips-and-counts.
  auto upd = db_.Execute(
      "UPDATE hle SET owner = 'carol' WHERE start_time = 500.0");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().affected_rows, 1);
  EXPECT_EQ(db_.stats().stale_index_entries.load(), stale_before + 2);
}

TEST_F(DatabaseTest, ScannedVersusMatchedCounters) {
  hedc::Counter* scanned_metric =
      hedc::MetricsRegistry::Default()->GetCounter("db.rows_scanned");
  hedc::Counter* matched_metric =
      hedc::MetricsRegistry::Default()->GetCounter("db.rows_matched");
  int64_t metric_scanned_before = scanned_metric->Value();
  int64_t metric_matched_before = matched_metric->Value();
  int64_t scanned_before = db_.stats().rows_examined.load();
  int64_t matched_before = db_.stats().rows_matched.load();
  auto r = db_.Execute("SELECT hle_id FROM hle WHERE owner = 'alice'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 50u);
  // The full scan examined every row but only half matched.
  EXPECT_EQ(db_.stats().rows_examined.load(), scanned_before + 100);
  EXPECT_EQ(db_.stats().rows_matched.load(), matched_before + 50);

  // The process-global metric pair (exported on /metrics) ticks in step.
  EXPECT_EQ(scanned_metric->Value(), metric_scanned_before + 100);
  EXPECT_EQ(matched_metric->Value(), metric_matched_before + 50);
}

// PRIMARY KEY semantics on a table with no explicit index: the implicit
// `<table>_pkey` hash index alone enforces uniqueness.
class PrimaryKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hedc_pk_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    CreateTable(&db_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void CreateTable(Database* db) {
    ASSERT_TRUE(db->Execute("CREATE TABLE usage (stat_id INT PRIMARY KEY, "
                            "op TEXT)")
                    .ok());
  }
  static StatusCode Insert(Database* db, int64_t id) {
    return db->Execute("INSERT INTO usage VALUES (?, 'op')", {Value::Int(id)})
        .status()
        .code();
  }
  static int64_t Count(Database* db) {
    return db->Execute("SELECT COUNT(*) FROM usage").value().rows[0][0].AsInt();
  }
  // A point query on the key finds `id` without a full scan, and a second
  // insert of it is rejected.
  static void ExpectIndexedAndUnique(Database* db, int64_t id) {
    int64_t scans = db->stats().full_scans.load();
    auto r = db->Execute("SELECT op FROM usage WHERE stat_id = ?",
                         {Value::Int(id)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().num_rows(), 1u);
    EXPECT_EQ(db->stats().full_scans.load(), scans);
    EXPECT_EQ(Insert(db, id), StatusCode::kAlreadyExists);
  }

  std::filesystem::path dir_;
  Database db_;
};

TEST_F(PrimaryKeyTest, KeyColumnGetsOneHashIndex) {
  const Table* table = db_.GetTable("usage");
  ASSERT_NE(table, nullptr);
  ASSERT_EQ(table->indexes().size(), 1u);
  EXPECT_EQ(table->indexes()[0].name, "usage_pkey");
  EXPECT_EQ(table->indexes()[0].kind, IndexKind::kHash);
  EXPECT_EQ(table->primary_key_index(), &table->indexes()[0]);
  ASSERT_TRUE(db_.Execute("CREATE TABLE keyless (a INT, b TEXT)").ok());
  EXPECT_TRUE(db_.GetTable("keyless")->indexes().empty());
  EXPECT_EQ(db_.GetTable("keyless")->primary_key_index(), nullptr);
}

TEST_F(PrimaryKeyTest, DuplicateRejectedOnLargeTable) {
  for (int64_t id = 1; id <= 10000; ++id) {
    ASSERT_EQ(Insert(&db_, id), StatusCode::kOk);
  }
  EXPECT_EQ(Insert(&db_, 1), StatusCode::kAlreadyExists);
  EXPECT_EQ(Insert(&db_, 5000), StatusCode::kAlreadyExists);
  EXPECT_EQ(Insert(&db_, 10000), StatusCode::kAlreadyExists);
  EXPECT_EQ(Insert(&db_, 10001), StatusCode::kOk);
  EXPECT_EQ(Count(&db_), 10001);
  ExpectIndexedAndUnique(&db_, 7777);
}

TEST_F(PrimaryKeyTest, UpdateToAnotherRowsKeyRejected) {
  ASSERT_EQ(Insert(&db_, 1), StatusCode::kOk);
  ASSERT_EQ(Insert(&db_, 2), StatusCode::kOk);
  auto clash = db_.Execute("UPDATE usage SET stat_id = 2 WHERE stat_id = 1");
  EXPECT_EQ(clash.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db_.Execute("SELECT COUNT(*) FROM usage WHERE stat_id = 1")
                .value().rows[0][0].AsInt(), 1);
  EXPECT_EQ(Count(&db_), 2);
}

TEST_F(PrimaryKeyTest, UpdateKeepingOwnKeyAccepted) {
  ASSERT_EQ(Insert(&db_, 1), StatusCode::kOk);
  ASSERT_EQ(Insert(&db_, 2), StatusCode::kOk);
  auto same = db_.Execute(
      "UPDATE usage SET stat_id = 1, op = 'renamed' WHERE stat_id = 1");
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ(same.value().affected_rows, 1);
  auto other = db_.Execute("UPDATE usage SET op = 'x' WHERE stat_id = 2");
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  // Moving a key to a free value frees the old one.
  ASSERT_TRUE(
      db_.Execute("UPDATE usage SET stat_id = 3 WHERE stat_id = 1").ok());
  EXPECT_EQ(Insert(&db_, 1), StatusCode::kOk);
  EXPECT_EQ(Insert(&db_, 3), StatusCode::kAlreadyExists);
}

TEST_F(PrimaryKeyTest, DeleteThenReinsertAccepted) {
  ASSERT_EQ(Insert(&db_, 7), StatusCode::kOk);
  ASSERT_TRUE(db_.Execute("DELETE FROM usage WHERE stat_id = 7").ok());
  EXPECT_EQ(Insert(&db_, 7), StatusCode::kOk);
  EXPECT_EQ(Count(&db_), 1);
  ExpectIndexedAndUnique(&db_, 7);
}

TEST_F(PrimaryKeyTest, RolledBackInsertFreesItsKey) {
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_EQ(Insert(&db_, 9), StatusCode::kOk);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_EQ(Count(&db_), 0);
  EXPECT_EQ(Insert(&db_, 9), StatusCode::kOk);
  ExpectIndexedAndUnique(&db_, 9);
}

TEST_F(PrimaryKeyTest, IndexRebuiltByWalReplay) {
  std::string wal = (dir_ / "db.wal").string();
  {
    Database db;
    ASSERT_TRUE(db.OpenWal(wal).ok());
    CreateTable(&db);
    for (int64_t id = 1; id <= 100; ++id) {
      ASSERT_EQ(Insert(&db, id), StatusCode::kOk);
    }
    ASSERT_TRUE(db.Execute("DELETE FROM usage WHERE stat_id = 50").ok());
  }
  Database replayed;
  ASSERT_TRUE(replayed.OpenWal(wal).ok());
  EXPECT_EQ(replayed.GetTable("usage")->indexes().size(), 1u);
  ExpectIndexedAndUnique(&replayed, 42);
  EXPECT_EQ(Insert(&replayed, 50), StatusCode::kOk);
  EXPECT_EQ(Count(&replayed), 100);
}

TEST_F(PrimaryKeyTest, IndexRebuiltBySnapshotRoundTrip) {
  for (int64_t id = 1; id <= 100; ++id) {
    ASSERT_EQ(Insert(&db_, id), StatusCode::kOk);
  }
  std::string snapshot = (dir_ / "db.snapshot").string();
  ASSERT_TRUE(WriteSnapshot(&db_, snapshot).ok());
  Database restored;
  Status loaded = LoadSnapshot(&restored, snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.GetTable("usage")->indexes().size(), 1u);
  ExpectIndexedAndUnique(&restored, 42);
  EXPECT_EQ(Count(&restored), 100);
}

}  // namespace
}  // namespace hedc::db
