// Join + grouped-aggregation throughput of the vectorized hash join
// (DESIGN.md §4h) across probe-side thread counts and build-side
// cardinalities, plus a
// grouped-aggregation sweep (few vs many groups) and the name-mapper's
// cold resolution cost (two indexed point queries).
//
// One database:
//   fact (id INT PRIMARY KEY, k_small INT, k_large INT, v INT, tag TEXT)
//   dim_small (k INT, name TEXT)    --   16 rows
//   dim_large (k INT, name TEXT)    -- 4096 rows (smoke: 512)
// Every mode runs the identical aggregate-over-join statement and the
// tuple counts are cross-checked, so a mode that joins wrong fails
// loudly instead of posting a fast number. Emits BENCH_join_agg.json;
// `--smoke` shrinks the tables for the bench-smoke ctest label.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "archive/name_mapper.h"
#include "core/config.h"
#include "db/database.h"

namespace {

using hedc::Config;
using hedc::bench::BenchRow;
using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::db::Database;
using hedc::db::ExecOptions;
using hedc::db::Value;

struct RunResult {
  double per_sec = 0;   // driver rows (or resolutions) per second
  double p50_us = 0;
  double p99_us = 0;
  int64_t check = -1;   // first cell of the first row (tuple count)
};

RunResult RunQuery(Database* db, const std::string& sql, int64_t work_items,
                   int reps) {
  RunResult out;
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    auto rs = db->Execute(sql);
    auto end = std::chrono::steady_clock::now();
    if (!rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rs.status().ToString().c_str());
      std::exit(1);
    }
    const int64_t check = rs.value().rows.empty()
                              ? -1
                              : rs.value().rows[0][0].AsInt();
    if (out.check >= 0 && check != out.check) {
      std::fprintf(stderr, "non-deterministic result for: %s\n", sql.c_str());
      std::exit(1);
    }
    out.check = check;
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  out.p50_us = PercentileUs(lat_us, 0.50);
  out.p99_us = PercentileUs(lat_us, 0.99);
  // Median-derived throughput: one descheduling hiccup in a rep must
  // not swing mode-to-mode ratios on small machines.
  out.per_sec = static_cast<double>(work_items) / (out.p50_us / 1e6);
  return out;
}

ExecOptions ModeOptions(int threads) {
  ExecOptions opts;
  opts.scan_threads = threads;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int64_t kFactRows = smoke ? 6000 : 150000;
  const int64_t kDimLarge = smoke ? 512 : 4096;
  const int kReps = smoke ? 3 : 21;

  Database db;
  for (const char* ddl :
       {"CREATE TABLE fact (id INT PRIMARY KEY, k_small INT, k_large INT, "
        "v INT, tag TEXT)",
        "CREATE TABLE dim_small (k INT, name TEXT)",
        "CREATE TABLE dim_large (k INT, name TEXT)"}) {
    if (!db.Execute(ddl).ok()) {
      std::fprintf(stderr, "DDL failed\n");
      return 1;
    }
  }
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> val(0, 999);
  const char* kTags[] = {"flare", "grb", "quiet", "other"};
  for (int64_t i = 0; i < kFactRows; ++i) {
    auto r = db.Execute("INSERT INTO fact VALUES (?, ?, ?, ?, ?)",
                        {Value::Int(i + 1), Value::Int(i % 16),
                         Value::Int(i % kDimLarge), Value::Int(val(rng)),
                         Value::Text(kTags[i % 4])});
    if (!r.ok()) {
      std::fprintf(stderr, "INSERT failed\n");
      return 1;
    }
  }
  for (int64_t k = 0; k < 16; ++k) {
    db.Execute("INSERT INTO dim_small VALUES (?, ?)",
               {Value::Int(k), Value::Text("s" + std::to_string(k))});
  }
  for (int64_t k = 0; k < kDimLarge; ++k) {
    db.Execute("INSERT INTO dim_large VALUES (?, ?)",
               {Value::Int(k), Value::Text("l" + std::to_string(k))});
  }

  struct Mode {
    const char* name;
    ExecOptions opts;
  };
  const Mode kModes[] = {
      {"vec_t1", ModeOptions(1)},
      {"vec_t4", ModeOptions(4)},
      {"vec_t8", ModeOptions(8)},
  };
  struct JoinCase {
    const char* name;
    const char* sql;
  };
  // The unfiltered joins are probe-bound (every driver row reaches the
  // hash table); the filtered ones put the compiled
  // filter kernels on the driver's critical path, the common shape for
  // analytic joins (selective fact-side predicate, then probe).
  const JoinCase kJoins[] = {
      {"join_build16",
       "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim_small ON "
       "fact.k_small = dim_small.k"},
      {"join_build4096",
       "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim_large ON "
       "fact.k_large = dim_large.k"},
      {"join_filtered_build16",
       "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim_small ON "
       "fact.k_small = dim_small.k WHERE fact.v < 100"},
      {"join_filtered_build4096",
       "SELECT COUNT(*), SUM(fact.v) FROM fact JOIN dim_large ON "
       "fact.k_large = dim_large.k WHERE fact.v < 100"},
  };

  std::vector<BenchRow> rows;
  std::printf("%-26s %14s %12s %12s %12s\n", "mode", "tuples/sec", "p50_us",
              "p99_us", "tuples");
  for (const JoinCase& jc : kJoins) {
    int64_t check = -1;
    for (const Mode& mode : kModes) {
      db.set_exec_options(mode.opts);
      RunResult qr = RunQuery(&db, jc.sql, kFactRows, kReps);
      if (check >= 0 && qr.check != check) {
        std::fprintf(stderr, "mode %s disagrees on %s\n", mode.name, jc.name);
        return 1;
      }
      check = qr.check;
      std::string label = std::string(jc.name) + "_" + mode.name;
      std::printf("%-26s %14.0f %12.1f %12.1f %12lld\n", label.c_str(),
                  qr.per_sec, qr.p50_us, qr.p99_us,
                  static_cast<long long>(qr.check));
      rows.push_back(BenchRow{label, Source::kMeasured,
                              {{"throughput_per_sec", qr.per_sec},
                               {"p50_us", qr.p50_us},
                               {"p99_us", qr.p99_us},
                               {"tuples", static_cast<double>(qr.check)}}});
    }
  }

  // Grouped aggregation: few groups (accumulator-bound) versus many
  // groups (hash-table-bound), single table so the group kernel
  // dominates.
  const JoinCase kAggs[] = {
      {"agg_groups4",
       "SELECT tag, COUNT(*), SUM(v), AVG(v) FROM fact GROUP BY tag"},
      {"agg_groups_many",
       "SELECT k_large, COUNT(*), SUM(v) FROM fact GROUP BY k_large"},
  };
  for (const JoinCase& ac : kAggs) {
    for (const Mode& mode : kModes) {
      db.set_exec_options(mode.opts);
      RunResult qr = RunQuery(&db, ac.sql, kFactRows, kReps);
      std::string label = std::string(ac.name) + "_" + mode.name;
      std::printf("%-26s %14.0f %12.1f %12.1f\n", label.c_str(), qr.per_sec,
                  qr.p50_us, qr.p99_us);
      rows.push_back(BenchRow{label, Source::kMeasured,
                              {{"throughput_per_sec", qr.per_sec},
                               {"p50_us", qr.p50_us},
                               {"p99_us", qr.p99_us}}});
    }
  }

  // Name resolution: latency and queries per cold resolution (cache off
  // so every Resolve hits the database, as relocation-heavy admin windows
  // do).
  const int64_t kItems = smoke ? 200 : 2000;
  {
    Database ndb;
    Config config;
    config.Set("name_mapper.cache_capacity", "0");
    hedc::archive::NameMapper mapper(&ndb, config);
    if (!mapper.Init().ok() ||
        !mapper.RegisterArchive(1, "disk", "/vol1").ok()) {
      std::fprintf(stderr, "mapper setup failed\n");
      return 1;
    }
    for (int64_t item = 0; item < kItems; ++item) {
      if (!mapper
               .AddLocation(item, hedc::archive::NameType::kFilename, 1,
                            "f" + std::to_string(item))
               .ok()) {
        std::fprintf(stderr, "AddLocation failed\n");
        return 1;
      }
    }
    const int64_t queries_before = ndb.stats().queries.load();
    std::vector<double> lat_us;
    auto wall_start = std::chrono::steady_clock::now();
    for (int64_t item = 0; item < kItems; ++item) {
      auto start = std::chrono::steady_clock::now();
      auto r = mapper.Resolve(item, hedc::archive::NameType::kFilename);
      auto end = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "Resolve failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
    auto wall_end = std::chrono::steady_clock::now();
    const double wall_s =
        std::chrono::duration<double>(wall_end - wall_start).count();
    const double queries_per_resolution =
        static_cast<double>(ndb.stats().queries.load() - queries_before) /
        static_cast<double>(kItems);
    const std::string label = "name_resolve";
    const double per_sec = static_cast<double>(kItems) / wall_s;
    std::printf("%-26s %14.0f %12.1f %12.1f  queries/resolve=%.2f\n",
                label.c_str(), per_sec, PercentileUs(lat_us, 0.5),
                PercentileUs(lat_us, 0.99), queries_per_resolution);
    rows.push_back(
        BenchRow{label, Source::kMeasured,
                 {{"throughput_per_sec", per_sec},
                  {"p50_us", PercentileUs(lat_us, 0.5)},
                  {"p99_us", PercentileUs(lat_us, 0.99)},
                  {"queries_per_resolution", queries_per_resolution}}});
  }

  if (!hedc::bench::WriteBenchJson("BENCH_join_agg.json", "join_agg", rows)) {
    std::fprintf(stderr, "cannot write BENCH_join_agg.json\n");
    return 1;
  }
  return 0;
}
