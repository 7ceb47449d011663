// Hash-join executor tests: two- and three-table equi-joins, NULL key
// semantics, duplicate-key fan-out, empty build sides, WHERE pushdown,
// residual ON conjuncts, joined grouped aggregation, planner knobs,
// EXPLAIN pipeline rendering, knob-combination equivalence, scan
// accounting on /metrics, and a join-vs-DML concurrency stress lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "db/database.h"
#include "db/explain.h"

namespace hedc::db {
namespace {

// Archive/location shape from the paper's dynamic-name-mapping section:
//   archives(archive_id, prefix, online)          -- 4 rows, small
//   entries(entry_id, item_id, archive_id, bytes, kind)
//       archive_id = i % 5 (0 dangles: no archive 0), NULL every 7th
//   tags(item_id, label)                          -- 0-2 labels per item
class JoinTest : public ::testing::Test {
 protected:
  static constexpr int kEntries = 200;

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE archives (archive_id INT PRIMARY "
                            "KEY, prefix TEXT, online BOOL)")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE entries (entry_id INT PRIMARY KEY, "
                            "item_id INT, archive_id INT, bytes INT, "
                            "kind TEXT)")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE tags (item_id INT, label TEXT)")
                    .ok());
    for (int a = 1; a <= 4; ++a) {
      ASSERT_TRUE(db_.Execute("INSERT INTO archives VALUES (?, ?, ?)",
                              {Value::Int(a),
                               Value::Text("/vol" + std::to_string(a)),
                               Value::Bool(a % 2 == 0)})
                      .ok());
    }
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(
          db_.Execute("INSERT INTO entries VALUES (?, ?, ?, ?, ?)",
                      {Value::Int(i), Value::Int(i / 2),
                       i % 7 == 0 ? Value::Null() : Value::Int(i % 5),
                       Value::Int(10 + i % 30),
                       Value::Text(i % 3 == 0 ? "fits" : "cdf")})
              .ok());
    }
    for (int item = 0; item < kEntries / 2; ++item) {
      for (int k = 0; k < item % 3; ++k) {  // 0, 1 or 2 labels
        ASSERT_TRUE(db_.Execute("INSERT INTO tags VALUES (?, ?)",
                                {Value::Int(item),
                                 Value::Text(k == 0 ? "solar" : "grb")})
                        .ok());
      }
    }
  }

  // The archive id entry i joins to, or -1 for NULL/dangling keys.
  static int JoinedArchive(int i) {
    if (i % 7 == 0) return -1;       // NULL key
    if (i % 5 == 0) return -1;       // archive 0 does not exist
    return i % 5;
  }

  Database db_;
};

TEST_F(JoinTest, TwoTableJoinMatchesManualComputation) {
  auto r = db_.Execute(
      "SELECT entries.entry_id, archives.prefix FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int i = 0; i < kEntries; ++i) {
    if (JoinedArchive(i) > 0) ++expected;
  }
  ASSERT_EQ(r.value().num_rows(), expected);
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    const int64_t id = r.value().Get(i, "entries.entry_id").AsInt();
    const int a = JoinedArchive(static_cast<int>(id));
    ASSERT_GT(a, 0) << "entry " << id << " should not have joined";
    EXPECT_EQ(r.value().Get(i, "archives.prefix").AsText(),
              "/vol" + std::to_string(a));
  }
}

TEST_F(JoinTest, NullJoinKeysNeverMatch) {
  // NULL = x is not true, so multiples of 7 must be absent even though
  // every archive row exists.
  auto r = db_.Execute(
      "SELECT entries.entry_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    EXPECT_NE(r.value().Get(i, "entries.entry_id").AsInt() % 7, 0);
  }
}

TEST_F(JoinTest, WherePushdownAndResidualOnConjunct) {
  // online = TRUE is pushed into the archives scan; the bytes/entry_id
  // conjunct on the ON clause is a residual (not a col=col edge).
  auto r = db_.Execute(
      "SELECT entries.entry_id, archives.archive_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "AND entries.bytes > 20 WHERE archives.online = TRUE");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int i = 0; i < kEntries; ++i) {
    const int a = JoinedArchive(i);
    if (a > 0 && a % 2 == 0 && 10 + i % 30 > 20) ++expected;
  }
  EXPECT_EQ(r.value().num_rows(), expected);
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    EXPECT_EQ(r.value().Get(i, "archives.archive_id").AsInt() % 2, 0);
  }
}

TEST_F(JoinTest, DuplicateBuildKeysFanOut) {
  // Each entry joins to every tag of its item (0-2 rows).
  auto r = db_.Execute(
      "SELECT entries.entry_id, tags.label FROM entries "
      "JOIN tags ON entries.item_id = tags.item_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int i = 0; i < kEntries; ++i) expected += (i / 2) % 3;
  EXPECT_EQ(r.value().num_rows(), expected);
}

TEST_F(JoinTest, ThreeTableJoin) {
  auto r = db_.Execute(
      "SELECT entries.entry_id, archives.prefix, tags.label FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "JOIN tags ON tags.item_id = entries.item_id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t expected = 0;
  for (int i = 0; i < kEntries; ++i) {
    if (JoinedArchive(i) > 0) expected += (i / 2) % 3;
  }
  ASSERT_EQ(r.value().num_rows(), expected);
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    const int64_t id = r.value().Get(i, "entries.entry_id").AsInt();
    EXPECT_EQ(r.value().Get(i, "archives.prefix").AsText(),
              "/vol" + std::to_string(JoinedArchive(static_cast<int>(id))));
  }
}

TEST_F(JoinTest, BareColumnsResolveWhenUnambiguous) {
  auto r = db_.Execute(
      "SELECT entry_id, prefix FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "WHERE entry_id = 11");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "prefix").AsText(), "/vol1");
}

TEST_F(JoinTest, AmbiguousBareColumnRejected) {
  auto r = db_.Execute(
      "SELECT archive_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("ambiguous"), std::string::npos)
      << r.status().ToString();
}

TEST_F(JoinTest, SelectStarQualifiesAmbiguousColumns) {
  auto r = db_.Execute(
      "SELECT * FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id LIMIT 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& cols = r.value().columns;
  // archive_id exists in both tables -> qualified; entry_id is unique.
  EXPECT_NE(std::find(cols.begin(), cols.end(), "entries.archive_id"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "archives.archive_id"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "entry_id"), cols.end());
}

TEST_F(JoinTest, EmptyBuildSideYieldsNoRows) {
  auto r = db_.Execute(
      "SELECT entries.entry_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "WHERE archives.prefix = '/nowhere'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 0u);
}

TEST_F(JoinTest, UngroupedAggregateOverEmptyJoinIsOneRow) {
  auto r = db_.Execute(
      "SELECT COUNT(*), SUM(entries.bytes) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "WHERE archives.prefix = '/nowhere'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.value().rows[0][1].is_null());
}

TEST_F(JoinTest, OrderByAndLimitOnJoin) {
  auto r = db_.Execute(
      "SELECT entries.entry_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "ORDER BY entries.entry_id DESC LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 5u);
  int64_t prev = r.value().Get(0, "entries.entry_id").AsInt();
  for (size_t i = 1; i < 5; ++i) {
    const int64_t cur = r.value().Get(i, "entries.entry_id").AsInt();
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST_F(JoinTest, ParameterizedJoinPredicate) {
  auto r = db_.Execute(
      "SELECT entries.entry_id FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "WHERE entries.bytes = ?",
      {Value::Int(17)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    EXPECT_EQ(r.value().Get(i, "entries.entry_id").AsInt() % 30, 7);
  }
}

TEST_F(JoinTest, JoinedGroupByAggregates) {
  auto r = db_.Execute(
      "SELECT archives.prefix, COUNT(*), SUM(entries.bytes), "
      "MIN(entries.bytes), AVG(entries.bytes) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY archives.prefix");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, int64_t> count, sum, min;
  for (int i = 0; i < kEntries; ++i) {
    const int a = JoinedArchive(i);
    if (a <= 0) continue;
    const std::string prefix = "/vol" + std::to_string(a);
    const int64_t bytes = 10 + i % 30;
    count[prefix] += 1;
    sum[prefix] += bytes;
    auto it = min.find(prefix);
    min[prefix] = it == min.end() ? bytes : std::min(it->second, bytes);
  }
  ASSERT_EQ(r.value().num_rows(), count.size());
  for (size_t i = 0; i < r.value().num_rows(); ++i) {
    const std::string prefix = r.value().rows[i][0].AsText();
    ASSERT_TRUE(count.count(prefix)) << prefix;
    EXPECT_EQ(r.value().rows[i][1].AsInt(), count[prefix]);
    EXPECT_EQ(r.value().rows[i][2].AsInt(), sum[prefix]);
    EXPECT_EQ(r.value().rows[i][3].AsInt(), min[prefix]);
    EXPECT_NEAR(r.value().rows[i][4].AsReal(),
                static_cast<double>(sum[prefix]) / count[prefix], 1e-9);
  }
}

TEST_F(JoinTest, GroupKeyFirstSeenOrderIsDriverOrder) {
  // Group emit order follows first appearance in driver-row order,
  // which is deterministic across thread counts.
  auto a = db_.Execute(
      "SELECT entries.kind, COUNT(*) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY entries.kind");
  auto b = db_.Execute(
      "SELECT entries.kind, COUNT(*) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY entries.kind");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_EQ(a.value().rows[i][0].AsText(), b.value().rows[i][0].AsText());
  }
}

TEST_F(JoinTest, ErrorCases) {
  // Unknown table.
  auto r1 = db_.Execute(
      "SELECT entries.entry_id FROM entries JOIN nope ON "
      "entries.archive_id = nope.x");
  EXPECT_FALSE(r1.ok());
  // Duplicate table.
  auto r2 = db_.Execute(
      "SELECT entries.entry_id FROM entries JOIN entries ON "
      "entries.entry_id = entries.entry_id");
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("duplicate table"),
            std::string::npos);
  // No equality edge -> cross join, unsupported.
  auto r3 = db_.Execute(
      "SELECT entries.entry_id FROM entries JOIN archives ON "
      "entries.bytes > 5");
  EXPECT_FALSE(r3.ok());
  EXPECT_NE(r3.status().ToString().find("cross join"), std::string::npos);
  // ON referencing a table joined later.
  auto r4 = db_.Execute(
      "SELECT entries.entry_id FROM entries "
      "JOIN archives ON archives.archive_id = tags.item_id "
      "JOIN tags ON tags.item_id = entries.item_id");
  EXPECT_FALSE(r4.ok());
  EXPECT_NE(r4.status().ToString().find("joined later"), std::string::npos);
  // Aggregated joined SELECT with ORDER BY.
  auto r5 = db_.Execute(
      "SELECT archives.prefix, COUNT(*) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY archives.prefix ORDER BY archives.prefix");
  EXPECT_FALSE(r5.ok());
  // Non-aggregated column missing from GROUP BY.
  auto r6 = db_.Execute(
      "SELECT entries.kind, COUNT(*) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY archives.prefix");
  EXPECT_FALSE(r6.ok());
  EXPECT_NE(r6.status().ToString().find("GROUP BY"), std::string::npos);
}

TEST_F(JoinTest, JoinsCounterIncrements) {
  const int64_t before = db_.stats().joins.load();
  ASSERT_TRUE(db_.Execute("SELECT entries.entry_id FROM entries JOIN "
                          "archives ON entries.archive_id = "
                          "archives.archive_id LIMIT 1")
                  .ok());
  EXPECT_EQ(db_.stats().joins.load(), before + 1);
}

// A joined SELECT's table accesses reach /metrics like a single-table
// SELECT's: heap-scanned rows tick db.rows_scanned in step with
// stats().rows_examined, index candidates tick only the latter, and each
// table's predicate survivors tick db.rows_matched.
TEST_F(JoinTest, TableAccessesTickScanCounters) {
  Counter* scanned = MetricsRegistry::Default()->GetCounter("db.rows_scanned");
  Counter* matched = MetricsRegistry::Default()->GetCounter("db.rows_matched");
  struct Deltas {
    int64_t scanned, matched, examined, stats_matched;
  };
  auto run = [&](const std::string& sql) {
    const Deltas before{scanned->Value(), matched->Value(),
                        db_.stats().rows_examined.load(),
                        db_.stats().rows_matched.load()};
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return Deltas{scanned->Value() - before.scanned,
                  matched->Value() - before.matched,
                  db_.stats().rows_examined.load() - before.examined,
                  db_.stats().rows_matched.load() - before.stats_matched};
  };

  // entries (200 rows) drives; archives is built from a full scan whose
  // local predicate keeps archives 2..4.
  Deltas scans = run(
      "SELECT entries.entry_id, archives.prefix FROM entries JOIN archives "
      "ON entries.archive_id = archives.archive_id "
      "WHERE archives.archive_id > 1");
  EXPECT_EQ(scans.examined, kEntries + 4);
  EXPECT_EQ(scans.scanned, scans.examined);
  EXPECT_EQ(scans.stats_matched, kEntries + 3);
  EXPECT_EQ(scans.matched, scans.stats_matched);

  // entry 12 comes from the primary-key index (estimated 1 row, so the
  // 4-row archives heap drives): only the heap rows count as scanned.
  Deltas indexed = run(
      "SELECT entries.entry_id, archives.prefix FROM entries JOIN archives "
      "ON entries.archive_id = archives.archive_id "
      "WHERE entries.entry_id = 12");
  EXPECT_EQ(indexed.scanned, 4);
  EXPECT_EQ(indexed.examined, 4 + 1);
  EXPECT_EQ(indexed.matched, 4 + 1);
  EXPECT_EQ(indexed.stats_matched, indexed.matched);
}

// Every interesting query, executed with 8 and with 1 build partitions,
// must produce identical rows (joins and grouped aggregation are
// deterministic: driver order x build insertion order).
TEST_F(JoinTest, RowAndVectorizedModesAgree) {
  const std::vector<std::string> queries = {
      "SELECT entries.entry_id, archives.prefix FROM entries JOIN archives "
      "ON entries.archive_id = archives.archive_id",
      "SELECT entries.entry_id, tags.label FROM entries JOIN tags ON "
      "entries.item_id = tags.item_id WHERE entries.kind = 'fits'",
      "SELECT entries.entry_id, archives.prefix, tags.label FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "JOIN tags ON tags.item_id = entries.item_id",
      "SELECT archives.prefix, COUNT(*), SUM(entries.bytes) FROM entries "
      "JOIN archives ON entries.archive_id = archives.archive_id "
      "GROUP BY archives.prefix",
      "SELECT entries.entry_id FROM entries JOIN archives ON "
      "entries.archive_id = archives.archive_id ORDER BY entries.bytes "
      "LIMIT 20",
  };
  for (const std::string& sql : queries) {
    std::vector<std::vector<Row>> results;
    for (int partitions : {8, 1}) {
      ExecOptions opts = db_.exec_options();
      opts.join_partitions = partitions;
      db_.set_exec_options(opts);
      auto r = db_.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      results.push_back(r.value().rows);
    }
    for (size_t c = 1; c < results.size(); ++c) {
      ASSERT_EQ(results[c].size(), results[0].size()) << sql;
      for (size_t i = 0; i < results[0].size(); ++i) {
        for (size_t j = 0; j < results[0][i].size(); ++j) {
          EXPECT_EQ(results[c][i][j].Compare(results[0][i][j]), 0)
              << sql << " run " << c << " row " << i << " col " << j;
        }
      }
    }
  }
}

TEST_F(JoinTest, ExplainRendersJoinPipeline) {
  auto plan = ExplainSelect(
      &db_,
      "SELECT entries.entry_id, archives.prefix FROM entries JOIN archives "
      "ON entries.archive_id = archives.archive_id");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan.value().joined);
  const std::string s = plan.value().ToString();
  EXPECT_NE(s.find("PIPELINE"), std::string::npos) << s;
  EXPECT_NE(s.find("HASH JOIN build"), std::string::npos) << s;
  // The planner drives from entries (200 rows) and builds the 4-row
  // archives side.
  EXPECT_NE(s.find("HASH JOIN build archives"), std::string::npos) << s;
  EXPECT_NE(s.find("SCAN entries"), std::string::npos) << s;
}

TEST_F(JoinTest, ExplainRendersGroupAggregateStage) {
  auto plan = ExplainSelect(
      &db_,
      "SELECT archives.prefix, COUNT(*) FROM entries JOIN archives ON "
      "entries.archive_id = archives.archive_id GROUP BY archives.prefix");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().ToString().find("GROUP AGGREGATE"),
            std::string::npos)
      << plan.value().ToString();
}

TEST_F(JoinTest, PlannerOffDrivesFromFirstTable) {
  // The join order does not follow the FROM clause: whichever table is
  // named first, entries (200 rows) drives and the 4-row archives side is
  // built.
  for (const char* sql :
       {"SELECT entries.entry_id FROM archives JOIN entries ON "
        "entries.archive_id = archives.archive_id",
        "SELECT entries.entry_id FROM entries JOIN archives ON "
        "entries.archive_id = archives.archive_id"}) {
    auto plan = ExplainSelect(&db_, sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan.value().ToString().find("HASH JOIN build archives"),
              std::string::npos)
        << sql << "\n" << plan.value().ToString();
  }
}

// Joined SELECTs race INSERT/UPDATE/DELETE on both joined tables. Run
// under TSan via `ctest -L stress`; correctness bar: no crashes, every
// statement succeeds, and each result is internally consistent.
TEST_F(JoinTest, JoinVsDmlStress) {
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto check = [&](const Result<ResultSet>& r) {
    if (!r.ok()) failures.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = db_.Execute(
            "SELECT entries.entry_id, archives.prefix FROM entries JOIN "
            "archives ON entries.archive_id = archives.archive_id");
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < r.value().num_rows(); ++i) {
          // Every surviving prefix must be a live archive path.
          if (r.value().rows[i][1].AsText().rfind("/vol", 0) != 0) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = db_.Execute(
          "SELECT archives.prefix, COUNT(*), SUM(entries.bytes) FROM "
          "entries JOIN archives ON entries.archive_id = "
          "archives.archive_id GROUP BY archives.prefix");
      check(r);
    }
  });
  threads.emplace_back([&] {
    int next_id = kEntries;
    while (!stop.load(std::memory_order_relaxed)) {
      check(db_.Execute("INSERT INTO entries VALUES (?, ?, ?, ?, 'cdf')",
                        {Value::Int(next_id), Value::Int(next_id / 2),
                         Value::Int(next_id % 5), Value::Int(next_id % 40)}));
      ++next_id;
    }
  });
  threads.emplace_back([&] {
    bool online = false;
    while (!stop.load(std::memory_order_relaxed)) {
      check(db_.Execute("UPDATE archives SET online = ? WHERE archive_id = 3",
                        {Value::Bool(online)}));
      online = !online;
    }
  });
  threads.emplace_back([&] {
    int victim = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      check(db_.Execute("DELETE FROM entries WHERE entry_id = ?",
                        {Value::Int(victim)}));
      victim = (victim + 13) % kEntries;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace hedc::db
