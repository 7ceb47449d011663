// Vectorized execution engine tests: chunk flattening, filter-kernel
// compilation and application (against the interpreter as ground
// truth), zone-map pruning soundness, and morsel-parallel scans.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/thread_pool.h"
#include "db/data_chunk.h"
#include "db/database.h"
#include "db/expr.h"
#include "db/scan_bounds.h"
#include "db/table.h"
#include "db/vectorized.h"

namespace hedc::db {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt, true, true},
                 {"e", ValueType::kInt, false, false},
                 {"t", ValueType::kReal, false, false},
                 {"tag", ValueType::kText, false, false}});
}

// id = i+1, e = i % 100, t = i (clustered), tag cycles; every 7th row
// has NULL e and every 11th a NULL tag.
void Fill(Table* table, int n) {
  const char* kTags[] = {"flare", "grb", "quiet"};
  for (int i = 0; i < n; ++i) {
    Row row{Value::Int(i + 1),
            i % 7 == 0 ? Value::Null() : Value::Int(i % 100),
            Value::Real(static_cast<double>(i)),
            i % 11 == 0 ? Value::Null() : Value::Text(kTags[i % 3])};
    auto r = table->Insert(std::move(row));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

std::unique_ptr<Expr> Bound(std::unique_ptr<Expr> e, const Schema& schema) {
  Status s = BindExpr(e.get(), schema, {});
  EXPECT_TRUE(s.ok()) << s.ToString();
  return e;
}

// Serial, unpruned reference: the interpreter over Table::Scan.
std::vector<int64_t> InterpretScan(const Table& table, const Expr* where) {
  std::vector<int64_t> out;
  table.Scan([&](int64_t row_id, const Row& row) {
    if (where != nullptr) {
      auto keep = EvalExpr(*where, row);
      EXPECT_TRUE(keep.ok()) << keep.status().ToString();
      if (!keep.ok() || !keep.value().AsBool()) return true;
    }
    out.push_back(row_id);
    return true;
  });
  return out;
}

std::vector<int64_t> Vectorized(const Table& table, const Expr* where,
                                const ScanOptions& opts,
                                ScanStats* stats = nullptr) {
  ScanStats local;
  std::vector<ScanMatch> matches;
  Status s = ScanFilter(table, where, opts, &matches,
                        stats != nullptr ? stats : &local);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<int64_t> out;
  out.reserve(matches.size());
  for (const ScanMatch& m : matches) out.push_back(m.row_id);
  return out;
}

TEST(DataChunkTest, FlattenTypedColumnsAndNulls) {
  Table table("t", TestSchema(), /*rows_per_morsel=*/64);
  Fill(&table, 10);

  Table::ScanCursor cursor;
  DataChunk chunk;
  ASSERT_TRUE(table.ScanChunk(&cursor, &chunk));
  ASSERT_EQ(chunk.size(), 10u);

  const FlatColumn& ids = chunk.Flatten(0);
  EXPECT_EQ(ids.tag, ValueType::kInt);
  EXPECT_TRUE(ids.uniform);
  EXPECT_EQ(ids.ints[3], 4);

  const FlatColumn& e = chunk.Flatten(1);
  EXPECT_EQ(e.nulls[0], 1);  // i=0 is divisible by 7
  EXPECT_EQ(e.nulls[1], 0);
  EXPECT_EQ(e.ints[1], 1);

  const FlatColumn& t = chunk.Flatten(2);
  EXPECT_EQ(t.tag, ValueType::kReal);
  EXPECT_DOUBLE_EQ(t.reals[5], 5.0);

  const FlatColumn& tag = chunk.Flatten(3);
  EXPECT_EQ(tag.tag, ValueType::kText);
  EXPECT_EQ(tag.nulls[0], 1);  // i=0 divisible by 11
  EXPECT_EQ(*tag.texts[1], "grb");
}

TEST(CompileFilterTest, RecognizesTypedShapes) {
  Schema schema = TestSchema();
  // e < 10 AND tag LIKE 'fl%' AND t IS NOT NULL AND id IN (1, 2)
  auto where = Expr::Binary(
      BinOp::kAnd,
      Expr::Binary(
          BinOp::kAnd,
          Expr::Binary(BinOp::kAnd,
                       Expr::Binary(BinOp::kLt, Expr::Column("e"),
                                    Expr::Literal(Value::Int(10))),
                       Expr::Binary(BinOp::kLike, Expr::Column("tag"),
                                    Expr::Literal(Value::Text("fl%")))),
          Expr::Unary(UnOp::kIsNotNull, Expr::Column("t"))),
      [] {
        auto in = std::make_unique<Expr>();
        in->kind = Expr::Kind::kInList;
        in->left = Expr::Column("id");
        in->list.push_back(Expr::Literal(Value::Int(1)));
        in->list.push_back(Expr::Literal(Value::Int(2)));
        return in;
      }());
  where = Bound(std::move(where), schema);
  FilterPlan plan = CompileFilter(where.get());
  EXPECT_EQ(plan.kernels.size(), 4u);
  EXPECT_EQ(plan.typed, 4u);
  EXPECT_EQ(plan.interpreted, 0u);
  EXPECT_TRUE(plan.fully_typed());
}

TEST(CompileFilterTest, ArithmeticFallsBackToInterpreter) {
  Schema schema = TestSchema();
  // e + 1 > 5 is not a recognized kernel shape.
  auto where = Bound(
      Expr::Binary(BinOp::kGt,
                   Expr::Binary(BinOp::kAdd, Expr::Column("e"),
                                Expr::Literal(Value::Int(1))),
                   Expr::Literal(Value::Int(5))),
      schema);
  FilterPlan plan = CompileFilter(where.get());
  ASSERT_EQ(plan.kernels.size(), 1u);
  EXPECT_EQ(plan.kernels[0].kind, FilterKernel::Kind::kInterpret);
  EXPECT_EQ(plan.interpreted, 1u);
}

TEST(CompileFilterTest, NullLiteralComparisonIsConstFalse) {
  Schema schema = TestSchema();
  auto where = Bound(Expr::Binary(BinOp::kEq, Expr::Column("e"),
                                  Expr::Literal(Value::Null())),
                     schema);
  FilterPlan plan = CompileFilter(where.get());
  ASSERT_EQ(plan.kernels.size(), 1u);
  EXPECT_EQ(plan.kernels[0].kind, FilterKernel::Kind::kConstFalse);

  Table table("t", TestSchema(), 64);
  Fill(&table, 50);
  EXPECT_TRUE(Vectorized(table, where.get(), ScanOptions{}).empty());
}

// Every kernel shape, checked against the interpreter row by row —
// including NULL-bearing columns, flipped literal-op-column order and
// the IS NULL / IN forms.
TEST(ApplyFilterTest, KernelsMatchInterpreter) {
  Schema schema = TestSchema();
  Table table("t", schema, 64);
  Fill(&table, 500);

  std::vector<std::unique_ptr<Expr>> predicates;
  predicates.push_back(Expr::Binary(BinOp::kLt, Expr::Column("e"),
                                    Expr::Literal(Value::Int(10))));
  predicates.push_back(Expr::Binary(BinOp::kGe, Expr::Literal(Value::Int(90)),
                                    Expr::Column("e")));  // flipped
  predicates.push_back(Expr::Binary(BinOp::kNe, Expr::Column("tag"),
                                    Expr::Literal(Value::Text("grb"))));
  predicates.push_back(Expr::Binary(BinOp::kEq, Expr::Column("t"),
                                    Expr::Literal(Value::Real(42.0))));
  predicates.push_back(Expr::Binary(BinOp::kLike, Expr::Column("tag"),
                                    Expr::Literal(Value::Text("%a%"))));
  predicates.push_back(Expr::Unary(UnOp::kIsNull, Expr::Column("e")));
  predicates.push_back(Expr::Unary(UnOp::kIsNotNull, Expr::Column("tag")));
  predicates.push_back(Expr::Binary(
      BinOp::kLt, Expr::Column("e"),
      Expr::Literal(Value::Real(33.5))));  // int column, real literal
  {
    auto in = std::make_unique<Expr>();
    in->kind = Expr::Kind::kInList;
    in->left = Expr::Column("tag");
    in->list.push_back(Expr::Literal(Value::Text("flare")));
    in->list.push_back(Expr::Literal(Value::Null()));  // skipped item
    in->list.push_back(Expr::Literal(Value::Text("quiet")));
    predicates.push_back(std::move(in));
  }
  {
    // Conjunction: typed kernel then interpreted residual.
    predicates.push_back(Expr::Binary(
        BinOp::kAnd,
        Expr::Binary(BinOp::kGe, Expr::Column("e"),
                     Expr::Literal(Value::Int(50))),
        Expr::Binary(BinOp::kGt,
                     Expr::Binary(BinOp::kMul, Expr::Column("t"),
                                  Expr::Literal(Value::Int(2))),
                     Expr::Literal(Value::Int(300)))));
  }

  for (auto& p : predicates) {
    auto where = Bound(std::move(p), schema);
    std::vector<int64_t> expected = InterpretScan(table, where.get());
    ScanOptions opts;
    opts.zone_maps = true;
    EXPECT_EQ(Vectorized(table, where.get(), opts), expected);
    opts.zone_maps = false;
    EXPECT_EQ(Vectorized(table, where.get(), opts), expected);
  }
}

TEST(ZoneMapTest, RangePredicatePrunesClusteredMorsels) {
  Schema schema = TestSchema();
  Table table("t", schema, 64);
  Fill(&table, 2048);  // t is clustered: morsel k holds t in [64k, 64k+63]

  auto where = Bound(Expr::Binary(BinOp::kLt, Expr::Column("t"),
                                  Expr::Literal(Value::Real(100.0))),
                     schema);
  ScanOptions opts;
  ScanStats stats;
  std::vector<int64_t> got = Vectorized(table, where.get(), opts, &stats);
  EXPECT_EQ(got, InterpretScan(table, where.get()));
  // Row ids start at 1, so ids 1..2048 span morsel keys 0..32.
  EXPECT_EQ(stats.morsels_total, 33);
  // Only the first two morsels (ids 1..127, t 0..126) can hold t < 100.
  EXPECT_EQ(stats.morsels_pruned, 31);
  EXPECT_LT(stats.rows_scanned, 200);
}

TEST(ZoneMapTest, UpdatesWidenZonesAndStayCorrect) {
  Schema schema = TestSchema();
  Table table("t", schema, 64);
  Fill(&table, 640);

  // Move a row from the first morsel to a value owned by the last.
  Row moved{Value::Int(1), Value::Int(5), Value::Real(9999.0),
            Value::Text("moved")};
  ASSERT_TRUE(table.Update(1, std::move(moved)).ok());

  auto where = Bound(Expr::Binary(BinOp::kGt, Expr::Column("t"),
                                  Expr::Literal(Value::Real(9000.0))),
                     schema);
  ScanOptions opts;
  std::vector<int64_t> got = Vectorized(table, where.get(), opts);
  ASSERT_EQ(got.size(), 1u);  // the widened first-morsel zone keeps it visible
  EXPECT_EQ(got[0], 1);

  // Deleting the row must not narrow the zone (it cannot), and the
  // query result stays consistent with the interpreter.
  ASSERT_TRUE(table.Delete(1).ok());
  EXPECT_EQ(Vectorized(table, where.get(), opts),
            InterpretScan(table, where.get()));
}

TEST(ZoneMapTest, TextZonesPruneOnlyAgainstTextProbes) {
  Schema schema({{"id", ValueType::kInt, true, true},
                 {"name", ValueType::kText, false, false}});
  Table table("t", schema, 16);
  // Lexicographically clustered text: aa.., bb.., cc.., dd..
  for (int i = 0; i < 64; ++i) {
    std::string name(3, static_cast<char>('a' + i / 16));
    ASSERT_TRUE(
        table.Insert(Row{Value::Int(i + 1), Value::Text(std::move(name))})
            .ok());
  }

  auto text_pred = Bound(Expr::Binary(BinOp::kGe, Expr::Column("name"),
                                      Expr::Literal(Value::Text("ddd"))),
                         schema);
  ScanOptions opts;
  ScanStats stats;
  EXPECT_EQ(Vectorized(table, text_pred.get(), opts, &stats),
            InterpretScan(table, text_pred.get()));
  EXPECT_EQ(stats.morsels_pruned, 3);  // aa/bb/cc morsels skipped

  // A numeric probe against a text zone must not prune (Value::Compare
  // coerces text to number, which does not follow lexicographic order).
  auto numeric_pred = Bound(Expr::Binary(BinOp::kGe, Expr::Column("name"),
                                         Expr::Literal(Value::Int(0))),
                            schema);
  ScanStats stats2;
  EXPECT_EQ(Vectorized(table, numeric_pred.get(), opts, &stats2),
            InterpretScan(table, numeric_pred.get()));
  EXPECT_EQ(stats2.morsels_pruned, 0);
}

TEST(ZoneMapTest, AllNullMorselColumnPrunesComparisons) {
  Schema schema({{"id", ValueType::kInt, true, true},
                 {"x", ValueType::kInt, false, false}});
  Table table("t", schema, 16);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(table.Insert(Row{Value::Int(i + 1), Value::Null()}).ok());
  }
  auto where = Bound(Expr::Binary(BinOp::kGt, Expr::Column("x"),
                                  Expr::Literal(Value::Int(0))),
                     schema);
  ScanOptions opts;
  ScanStats stats;
  EXPECT_TRUE(Vectorized(table, where.get(), opts, &stats).empty());
  EXPECT_EQ(stats.morsels_pruned, stats.morsels_total);
  EXPECT_GT(stats.morsels_pruned, 0);
  EXPECT_EQ(stats.rows_scanned, 0);
}

TEST(MorselTest, ConfigurableWidthAndReclamation) {
  Table table("t", TestSchema(), 64);
  EXPECT_EQ(table.rows_per_morsel(), 64);
  Fill(&table, 640);
  // Ids 1..640 span morsel keys 0..10 (id 1 lands mid-morsel-0).
  EXPECT_EQ(table.num_morsels(), 11u);

  // Emptying one morsel's worth of rows frees the morsel.
  for (int64_t id = 64; id <= 127; ++id) {
    ASSERT_TRUE(table.Delete(id).ok());
  }
  EXPECT_EQ(table.num_morsels(), 10u);
  EXPECT_EQ(table.num_rows(), 640u - 64u);
}

TEST(ParallelScanTest, MatchesSerialInOrder) {
  Schema schema = TestSchema();
  Table table("t", schema, 128);
  Fill(&table, 20000);

  auto where = Bound(Expr::Binary(BinOp::kLt, Expr::Column("e"),
                                  Expr::Literal(Value::Int(25))),
                     schema);
  ScanOptions serial;
  std::vector<int64_t> expected = Vectorized(table, where.get(), serial);
  ASSERT_FALSE(expected.empty());

  ThreadPool pool(4);
  ScanOptions par;
  par.threads = 4;
  par.pool = &pool;
  par.min_parallel_rows = 0;
  par.zone_maps = false;  // every row through the kernels
  ScanStats stats;
  std::vector<int64_t> got = Vectorized(table, where.get(), par, &stats);
  EXPECT_EQ(got, expected);  // same survivors, same ascending order
  EXPECT_GT(stats.threads_used, 1);
  EXPECT_EQ(stats.rows_scanned, 20000);
}

TEST(ParallelScanTest, SmallTablesStaySerial) {
  Schema schema = TestSchema();
  Table table("t", schema, 128);
  Fill(&table, 100);
  ThreadPool pool(4);
  ScanOptions opts;
  opts.threads = 4;
  opts.pool = &pool;  // default min_parallel_rows keeps this serial
  ScanStats stats;
  Vectorized(table, nullptr, opts, &stats);
  EXPECT_EQ(stats.threads_used, 1);
}

TEST(DatabaseExecTest, ConfigureControlsVectorizedExecution) {
  Database db;
  ExecOptions opts = db.exec_options();
  opts.morsel_rows = 32;
  opts.scan_threads = 1;
  db.set_exec_options(opts);
  EXPECT_EQ(db.exec_options().morsel_rows, 32);

  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (?, ?)",
                           {Value::Int(i + 1), Value::Int(i % 10)})
                    .ok());
  }
  EXPECT_EQ(db.GetTable("t")->rows_per_morsel(), 32);
  EXPECT_EQ(db.GetTable("t")->num_morsels(), 7u);

  auto serial = db.Execute("SELECT id FROM t WHERE v = 3");
  ASSERT_TRUE(serial.ok());

  // The other knobs apply to the next statement; existing tables keep
  // their morsel width.
  opts.scan_threads = 4;
  opts.morsel_rows = 64;
  db.set_exec_options(opts);
  EXPECT_EQ(db.GetTable("t")->rows_per_morsel(), 32);
  auto parallel = db.Execute("SELECT id FROM t WHERE v = 3");
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel.value().num_rows(), serial.value().num_rows());
  for (size_t i = 0; i < parallel.value().num_rows(); ++i) {
    EXPECT_EQ(parallel.value().rows[i][0].AsInt(), serial.value().rows[i][0].AsInt());
  }
}

}  // namespace
}  // namespace hedc::db
