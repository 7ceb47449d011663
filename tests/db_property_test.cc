// Property tests: the SQL engine under randomized inserts, updates,
// deletes and range/point/compound/joined queries, against reference
// models that share none of its access paths — a plain in-memory model,
// a std::set of live keys, and the nested-loop reference evaluator
// (sql_reference.h). Any divergence fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/rng.h"
#include "core/strings.h"
#include "db/database.h"
#include "sql_reference.h"

namespace hedc::db {
namespace {

struct ModelRow {
  int64_t id;
  int64_t a;
  double b;
  std::string c;
};

class SqlPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SqlPropertyTest, EngineMatchesReferenceModel) {
  Rng rng(GetParam());
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, "
                         "b REAL, c TEXT)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX t_by_id ON t (id) USING HASH").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX t_by_a ON t (a)").ok());

  std::map<int64_t, ModelRow> model;
  int64_t next_id = 1;
  const char* kTags[] = {"flare", "grb", "quiet", "flare_x", "other"};

  auto verify_range = [&](int64_t lo, int64_t hi) {
    auto rs = db.Execute(
        "SELECT id FROM t WHERE a >= ? AND a <= ? ORDER BY id",
        {Value::Int(lo), Value::Int(hi)});
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    std::vector<int64_t> got;
    for (const Row& row : rs.value().rows) got.push_back(row[0].AsInt());
    std::vector<int64_t> expected;
    for (const auto& [id, row] : model) {
      if (row.a >= lo && row.a <= hi) expected.push_back(id);
    }
    ASSERT_EQ(got, expected) << "range [" << lo << "," << hi << "]";
  };

  for (int step = 0; step < 1500; ++step) {
    double action = rng.NextDouble();
    if (action < 0.45) {
      // Insert.
      ModelRow row;
      row.id = next_id++;
      row.a = rng.UniformInt(0, 100);
      row.b = rng.Uniform(0, 10);
      row.c = kTags[rng.UniformInt(0, 4)];
      auto r = db.Execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                          {Value::Int(row.id), Value::Int(row.a),
                           Value::Real(row.b), Value::Text(row.c)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      model[row.id] = row;
    } else if (action < 0.6 && !model.empty()) {
      // Point delete of a random existing or missing id.
      int64_t id = rng.Bernoulli(0.8)
                       ? std::next(model.begin(),
                                   rng.UniformInt(
                                       0, static_cast<int64_t>(model.size()) -
                                              1))
                             ->first
                       : next_id + 100;
      auto r = db.Execute("DELETE FROM t WHERE id = ?", {Value::Int(id)});
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value().affected_rows, model.count(id) ? 1 : 0);
      model.erase(id);
    } else if (action < 0.75 && !model.empty()) {
      // Range update on the indexed column.
      int64_t lo = rng.UniformInt(0, 90);
      int64_t hi = lo + rng.UniformInt(0, 15);
      double nb = rng.Uniform(0, 10);
      auto r = db.Execute("UPDATE t SET b = ? WHERE a >= ? AND a <= ?",
                          {Value::Real(nb), Value::Int(lo), Value::Int(hi)});
      ASSERT_TRUE(r.ok());
      int64_t expected_updates = 0;
      for (auto& [id, row] : model) {
        if (row.a >= lo && row.a <= hi) {
          row.b = nb;
          ++expected_updates;
        }
      }
      ASSERT_EQ(r.value().affected_rows, expected_updates);
    } else {
      // Compound query: indexed range + residual text/real predicates.
      int64_t lo = rng.UniformInt(0, 80);
      int64_t hi = lo + rng.UniformInt(0, 30);
      double b_cut = rng.Uniform(0, 10);
      std::string tag = kTags[rng.UniformInt(0, 4)];
      auto rs = db.Execute(
          "SELECT id, a, b FROM t WHERE a >= ? AND a <= ? AND "
          "(b < ? OR c LIKE ?) ORDER BY id",
          {Value::Int(lo), Value::Int(hi), Value::Real(b_cut),
           Value::Text(tag + "%")});
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      std::vector<int64_t> got;
      for (const Row& row : rs.value().rows) got.push_back(row[0].AsInt());
      std::vector<int64_t> expected;
      for (const auto& [id, row] : model) {
        bool like = row.c.size() >= tag.size() &&
                    row.c.compare(0, tag.size(), tag) == 0;
        if (row.a >= lo && row.a <= hi && (row.b < b_cut || like)) {
          expected.push_back(id);
        }
      }
      ASSERT_EQ(got, expected) << "step " << step;
    }
    if (step % 200 == 0) {
      verify_range(0, 100);
      // COUNT agrees with the model.
      auto count = db.Execute("SELECT COUNT(*) FROM t");
      ASSERT_TRUE(count.ok());
      ASSERT_EQ(count.value().rows[0][0].AsInt(),
                static_cast<int64_t>(model.size()));
    }
  }
  // Final: aggregates over the indexed column agree.
  if (!model.empty()) {
    auto agg = db.Execute("SELECT MIN(a), MAX(a), SUM(a) FROM t");
    ASSERT_TRUE(agg.ok());
    int64_t mn = model.begin()->second.a, mx = model.begin()->second.a;
    double sum = 0;
    for (const auto& [id, row] : model) {
      mn = std::min(mn, row.a);
      mx = std::max(mx, row.a);
      sum += static_cast<double>(row.a);
    }
    EXPECT_EQ(agg.value().rows[0][0].AsInt(), mn);
    EXPECT_EQ(agg.value().rows[0][1].AsInt(), mx);
    EXPECT_DOUBLE_EQ(agg.value().rows[0][2].AsReal(), sum);
  }
}

// Checks every statement of a random workload against the nested-loop
// reference evaluator (tests/sql_reference.h), on the same heap: each
// SELECT must return the reference's rows (order-insensitive, types
// included), and each UPDATE or DELETE must affect the rows the
// reference predicts from a heap scan before it runs and leave exactly
// the heap the reference predicts. The engine runs small morsels,
// parallel scans, zone maps and a partitioned hash join, so its
// kernels, pruning, planner and aggregator all face the reference.
class ReferenceChecker {
 public:
  explicit ReferenceChecker(Database* db) : db_(db) {
    ExecOptions opts;
    opts.zone_maps = true;
    opts.morsel_rows = 32;  // small morsels: exercise pruning + many chunks
    opts.scan_threads = 4;
    opts.join_partitions = 4;
    db_->set_exec_options(opts);
  }

  void Insert(const std::string& sql, const std::vector<Value>& params) {
    auto r = db_->Execute(sql, params);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  void Select(const std::string& sql, const std::vector<Value>& params) {
    auto want = reference::Select(db_, sql, params);
    auto got = db_->Execute(sql, params);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ASSERT_EQ(Sorted(got.value().rows), Sorted(want.value())) << sql;
  }

  void Dml(const std::string& sql, const std::vector<Value>& params) {
    auto want = reference::PredictDml(db_, sql, params);
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    auto got = db_->Execute(sql, params);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ASSERT_EQ(got.value().affected_rows, want.value().affected_rows) << sql;
    ASSERT_EQ(Rendered(reference::Heap(db_, want.value().table)),
              Rendered(want.value().heap))
        << sql;
  }

 private:
  static std::vector<std::string> Sorted(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) out.push_back(reference::RenderRow(row));
    std::sort(out.begin(), out.end());
    return out;
  }
  static std::map<int64_t, std::string> Rendered(
      const std::map<int64_t, Row>& heap) {
    std::map<int64_t, std::string> out;
    for (const auto& [row_id, row] : heap) {
      out[row_id] = reference::RenderRow(row);
    }
    return out;
  }

  Database* db_;
};

// Single-table statements; the corpus includes NULLs, IN lists and
// predicates the kernel compiler cannot type. The queries avoid ORDER BY
// so the comparison covers the engine's native emit order too.
TEST_P(SqlPropertyTest, SelectsMatchNestedLoopReference) {
  Rng rng(GetParam() * 7919 + 3);
  Database db;
  ReferenceChecker check(&db);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, "
                         "b REAL, c TEXT)")
                  .ok());

  const char* kTags[] = {"flare", "grb", "quiet", "flare_x", "other"};
  int64_t next_id = 1;
  for (int step = 0; step < 800; ++step) {
    double action = rng.NextDouble();
    if (action < 0.4) {
      // Insert; a and c are NULL some of the time.
      std::vector<Value> params{
          Value::Int(next_id++),
          rng.Bernoulli(0.15) ? Value::Null()
                              : Value::Int(rng.UniformInt(0, 100)),
          Value::Real(rng.Uniform(0, 10)),
          rng.Bernoulli(0.1) ? Value::Null()
                             : Value::Text(kTags[rng.UniformInt(0, 4)])};
      check.Insert("INSERT INTO t VALUES (?, ?, ?, ?)", params);
    } else if (action < 0.5) {
      check.Dml("DELETE FROM t WHERE id = ?",
                {Value::Int(rng.UniformInt(1, next_id))});
    } else if (action < 0.6) {
      check.Dml("UPDATE t SET b = ?, a = ? WHERE a >= ? AND a < ?",
                {Value::Real(rng.Uniform(0, 10)),
                 rng.Bernoulli(0.2) ? Value::Null()
                                    : Value::Int(rng.UniformInt(0, 100)),
                 Value::Int(rng.UniformInt(0, 90)),
                 Value::Int(rng.UniformInt(0, 110))});
    } else if (action < 0.7) {
      // IN-list over the tag column (text, nullable).
      check.Select("SELECT id, c FROM t WHERE c IN (?, ?, ?)",
                   {Value::Text(kTags[rng.UniformInt(0, 4)]),
                    Value::Text(kTags[rng.UniformInt(0, 4)]),
                    rng.Bernoulli(0.3)
                        ? Value::Null()
                        : Value::Text(kTags[rng.UniformInt(0, 4)])});
    } else if (action < 0.8) {
      if (rng.Bernoulli(0.5)) {
        check.Select("SELECT id, a FROM t WHERE a IS NULL", {});
      } else {
        check.Select("SELECT id, a FROM t WHERE a IS NOT NULL AND a >= ?",
                     {Value::Int(rng.UniformInt(0, 100))});
      }
    } else if (action < 0.9) {
      // Range over a clustered-ish column (zone maps active) plus a
      // residual the kernel compiler cannot type.
      check.Select("SELECT id FROM t WHERE id >= ? AND id <= ? AND b * ? < ?",
                   {Value::Int(rng.UniformInt(1, next_id)),
                    Value::Int(rng.UniformInt(1, next_id + 50)),
                    Value::Real(rng.Uniform(0.5, 2.0)),
                    Value::Real(rng.Uniform(0, 15))});
    } else {
      check.Select(
          "SELECT id, c FROM t WHERE c LIKE ? OR a = ?",
          {Value::Text(std::string(kTags[rng.UniformInt(0, 4)]).substr(0, 2) +
                       "%"),
           Value::Int(rng.UniformInt(0, 100))});
    }
  }
  check.Select("SELECT COUNT(*), MIN(a), MAX(a) FROM t", {});
}

// Randomized 2- and 3-table equi-joins and grouped aggregates with NULL
// join keys, dangling keys, duplicate build keys and empty build sides.
// Aggregated columns are integer-valued so SUM/AVG are exact under any
// morsel/partition association and the comparison can stay bit-exact.
TEST_P(SqlPropertyTest, JoinedQueriesMatchNestedLoopReference) {
  Rng rng(GetParam() * 104729 + 17);
  Database db;
  ReferenceChecker check(&db);
  ASSERT_TRUE(db.Execute("CREATE TABLE f (id INT PRIMARY KEY, k INT, "
                         "v INT, tag TEXT)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE d (k INT, name TEXT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE g (name TEXT, r INT)").ok());

  const char* kNames[] = {"mica", "phoenix", "soho", "rhessi"};
  // Dimension rows: keys 0..9, ~60% of keys present, some twice
  // (fan-out); fact keys run 0..14 so 10..14 always dangle.
  for (int k = 0; k < 10; ++k) {
    if (rng.Bernoulli(0.4)) continue;
    const int copies = rng.Bernoulli(0.3) ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      check.Insert("INSERT INTO d VALUES (?, ?)",
                   {Value::Int(k), Value::Text(kNames[(k + c) % 4])});
    }
  }
  for (int i = 0; i < 4; ++i) {
    check.Insert("INSERT INTO g VALUES (?, ?)",
                 {Value::Text(kNames[i]), Value::Int(i * 100)});
  }

  int64_t next_id = 1;
  for (int step = 0; step < 400; ++step) {
    double action = rng.NextDouble();
    if (action < 0.4) {
      check.Insert("INSERT INTO f VALUES (?, ?, ?, ?)",
                   {Value::Int(next_id++),
                    rng.Bernoulli(0.15) ? Value::Null()
                                        : Value::Int(rng.UniformInt(0, 14)),
                    Value::Int(rng.UniformInt(0, 1000)),
                    Value::Text(kNames[rng.UniformInt(0, 3)])});
    } else if (action < 0.48) {
      check.Dml("DELETE FROM f WHERE id = ?",
                {Value::Int(rng.UniformInt(1, next_id))});
    } else if (action < 0.56) {
      check.Dml("UPDATE f SET k = ? WHERE id = ?",
                {rng.Bernoulli(0.2) ? Value::Null()
                                    : Value::Int(rng.UniformInt(0, 14)),
                 Value::Int(rng.UniformInt(1, next_id))});
    } else if (action < 0.68) {
      check.Select("SELECT f.id, d.name FROM f JOIN d ON f.k = d.k "
                   "WHERE f.v >= ?",
                   {Value::Int(rng.UniformInt(0, 1000))});
    } else if (action < 0.78) {
      check.Select("SELECT f.id, d.name, g.r FROM f JOIN d ON f.k = d.k "
                   "JOIN g ON g.name = d.name WHERE f.tag = ?",
                   {Value::Text(kNames[rng.UniformInt(0, 3)])});
    } else if (action < 0.88) {
      check.Select("SELECT d.name, COUNT(*), SUM(f.v), AVG(f.v), MIN(f.v) "
                   "FROM f JOIN d ON f.k = d.k GROUP BY d.name",
                   {});
    } else if (action < 0.94) {
      // Empty or near-empty build side (name not in d / rare key).
      check.Select("SELECT COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k "
                   "WHERE d.name = ?",
                   {rng.Bernoulli(0.5)
                        ? Value::Text("nonesuch")
                        : Value::Text(kNames[rng.UniformInt(0, 3)])});
    } else {
      check.Select("SELECT f.tag, d.k, COUNT(*), SUM(f.v) FROM f JOIN d ON "
                   "f.k = d.k GROUP BY f.tag, d.k",
                   {});
    }
  }
  check.Select("SELECT f.id, d.name, g.r FROM f JOIN d ON f.k = d.k "
               "JOIN g ON g.name = d.name",
               {});
}

// PRIMARY KEY enforcement on a table with no explicit index (only the
// implicit hash index): random INSERTs and key-moving UPDATEs, many of
// them duplicates, must be accepted exactly when a std::set model of the
// live keys says the key is free. Rolled-back inserts must free theirs.
TEST_P(SqlPropertyTest, PrimaryKeyMatchesKeySetModel) {
  Rng rng(GetParam());
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE k (id INT PRIMARY KEY, v INT)").ok());
  std::set<int64_t> keys;
  auto expect_code = [&](const Result<ResultSet>& r, bool accept, int step) {
    if (accept) {
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.status().ToString();
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kAlreadyExists)
          << "step " << step;
    }
  };
  for (int step = 0; step < 3000; ++step) {
    // A small key space makes duplicates frequent.
    int64_t id = rng.UniformInt(0, 199);
    double action = rng.NextDouble();
    if (action < 0.45) {
      auto r = db.Execute("INSERT INTO k VALUES (?, ?)",
                          {Value::Int(id), Value::Int(step)});
      bool accept = keys.count(id) == 0;
      expect_code(r, accept, step);
      if (accept) keys.insert(id);
    } else if (action < 0.7) {
      // Move key `from` to `id`; keeping its own key is always allowed.
      int64_t from = rng.UniformInt(0, 199);
      auto r = db.Execute("UPDATE k SET id = ? WHERE id = ?",
                          {Value::Int(id), Value::Int(from)});
      bool present = keys.count(from) > 0;
      bool accept = !present || from == id || keys.count(id) == 0;
      expect_code(r, accept, step);
      if (accept) {
        ASSERT_EQ(r.value().affected_rows, present ? 1 : 0) << "step " << step;
        if (present) {
          keys.erase(from);
          keys.insert(id);
        }
      }
    } else if (action < 0.9) {
      auto r = db.Execute("DELETE FROM k WHERE id = ?", {Value::Int(id)});
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value().affected_rows, static_cast<int64_t>(keys.erase(id)));
    } else {
      ASSERT_TRUE(db.Begin().ok());
      auto r = db.Execute("INSERT INTO k VALUES (?, ?)",
                          {Value::Int(id), Value::Int(step)});
      expect_code(r, keys.count(id) == 0, step);
      ASSERT_TRUE(db.Rollback().ok());
    }
    if (step % 250 == 0) {
      int64_t scans = db.stats().full_scans.load();
      auto point = db.Execute("SELECT COUNT(*) FROM k WHERE id = ?",
                              {Value::Int(id)});
      ASSERT_TRUE(point.ok());
      ASSERT_EQ(point.value().rows[0][0].AsInt(),
                static_cast<int64_t>(keys.count(id)));
      ASSERT_EQ(db.stats().full_scans.load(), scans) << "step " << step;
      auto all = db.Execute("SELECT id FROM k ORDER BY id");
      ASSERT_TRUE(all.ok());
      std::vector<int64_t> got;
      for (const Row& row : all.value().rows) got.push_back(row[0].AsInt());
      ASSERT_EQ(got, std::vector<int64_t>(keys.begin(), keys.end()))
          << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlPropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 20260705));

}  // namespace
}  // namespace hedc::db
