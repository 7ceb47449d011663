// Plan explanation tests: ExplainSelect must agree with the executor's
// actual access-path choice (validated via the stats counters).
#include <gtest/gtest.h>

#include "db/explain.h"

namespace hedc::db {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE hle (hle_id INT PRIMARY KEY, "
                            "t_start REAL, owner TEXT)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX hle_by_id ON hle (hle_id) USING HASH")
            .ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX hle_by_time ON hle (t_start)")
                    .ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO hle VALUES (?, ?, 'u')",
                              {Value::Int(i), Value::Real(i * 2.0)})
                      .ok());
    }
  }

  // True if executing `sql` used an index (no full scan).
  bool ExecutorUsedIndex(const std::string& sql) {
    int64_t scans_before = db_.stats().full_scans.load();
    EXPECT_TRUE(db_.Execute(sql).ok());
    return db_.stats().full_scans.load() == scans_before;
  }

  Database db_;
};

TEST_F(ExplainTest, PointQueryUsesHashIndex) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
  EXPECT_EQ(plan.value().column, "hle_id");
  EXPECT_TRUE(ExecutorUsedIndex("SELECT * FROM hle WHERE hle_id = 7"));
}

TEST_F(ExplainTest, RangeQueryUsesBTree) {
  auto plan = ExplainSelect(
      &db_, "SELECT * FROM hle WHERE t_start >= 10 AND t_start < 30");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexRange);
  EXPECT_EQ(plan.value().column, "t_start");
  EXPECT_TRUE(ExecutorUsedIndex(
      "SELECT * FROM hle WHERE t_start >= 10 AND t_start < 30"));
}

TEST_F(ExplainTest, UnindexedPredicateScans) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE owner = 'u'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kFullScan);
  EXPECT_FALSE(ExecutorUsedIndex("SELECT * FROM hle WHERE owner = 'u'"));
}

TEST_F(ExplainTest, NoPredicateScans) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kFullScan);
}

TEST_F(ExplainTest, EqualityPreferredOverRange) {
  auto plan = ExplainSelect(
      &db_, "SELECT * FROM hle WHERE t_start > 5 AND hle_id = 3");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
  EXPECT_EQ(plan.value().column, "hle_id");
}

TEST_F(ExplainTest, ParametersArePlannable) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = ?");
  ASSERT_TRUE(plan.ok());
  // Parameter markers are planning-opaque; the executor binds them to
  // literals first, so the point access is only chosen at execution.
  // Explain reports the conservative answer.
  EXPECT_EQ(plan.value().access, QueryPlan::Access::kIndexPoint);
}

TEST_F(ExplainTest, ErrorsPropagate) {
  EXPECT_FALSE(ExplainSelect(&db_, "SELECT * FROM nope").ok());
  EXPECT_FALSE(ExplainSelect(&db_, "DELETE FROM hle").ok());
  EXPECT_FALSE(ExplainSelect(&db_, "garbage").ok());
}

TEST_F(ExplainTest, ToStringIsReadable) {
  auto plan = ExplainSelect(&db_, "SELECT * FROM hle WHERE hle_id = 7");
  ASSERT_TRUE(plan.ok());
  std::string text = plan.value().ToString();
  EXPECT_NE(text.find("INDEX POINT"), std::string::npos);
  EXPECT_NE(text.find("hle_id"), std::string::npos);
}

TEST_F(ExplainTest, FullScanReportsVectorizedStrategy) {
  // Shrink the morsels so the 50-row table spans several of them, and
  // pin the parallelism knob to a known value.
  ExecOptions opts = db_.exec_options();
  opts.morsel_rows = 16;  // Table clamps below 16
  opts.scan_threads = 4;
  db_.set_exec_options(opts);
  ASSERT_TRUE(db_.Execute("CREATE TABLE narrow (id INT PRIMARY KEY, "
                          "v REAL)")
                  .ok());
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO narrow VALUES (?, ?)",
                            {Value::Int(i + 1), Value::Real(i * 1.0)})
                    .ok());
  }

  auto plan = ExplainSelect(&db_, "SELECT * FROM narrow WHERE v < 8.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const QueryPlan& p = plan.value();
  EXPECT_EQ(p.access, QueryPlan::Access::kFullScan);
  EXPECT_EQ(p.morsel_count, 4);  // ids 1..48, 16 per morsel
  // v < 8.0 touches only rows with v 0..7 (the first morsel).
  EXPECT_GE(p.morsels_pruned, p.morsel_count / 2);
  // 48 rows is below the serial threshold, so the planned degree is 1;
  // the knob caps it, not the table size.
  EXPECT_EQ(p.parallelism, 1);
  std::string text = p.ToString();
  EXPECT_NE(text.find("vectorized"), std::string::npos);
  EXPECT_NE(text.find("morsels"), std::string::npos);
  EXPECT_NE(text.find("pruned"), std::string::npos);
}

}  // namespace
}  // namespace hedc::db
