// Scan-filter execution throughput of the vectorized engine (DESIGN.md
// §4e): serial, morsel-parallel at 2/4/8 threads, and with zone maps.
//
// One database, one event table:
//   ev (id INT PRIMARY KEY, t REAL, e INT, tag TEXT)
// `t` is clustered (insertion order), `e` is uniform random in
// [0, 1000) and unindexed, so WHERE predicates on `e` force a full
// scan. Two selectivities:
//   * low:  e < 10   (~1% of rows survive)  — kernel-bound
//   * high: e < 900  (~90% survive)         — emit-bound
// and a zone-map section with a range predicate on clustered `t`
// (zone maps on versus off, reporting the fraction of morsels pruned).
//
// Every mode runs the identical SELECT COUNT(*) query; match counts are
// cross-checked so a mode that returns wrong results fails loudly
// instead of posting a fast number. Emits BENCH_query_exec.json
// (rows-filtered-per-second plus latency percentiles per mode).
// `--smoke` shrinks the table for the bench-smoke ctest label.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "db/database.h"

namespace {

using hedc::bench::BenchRow;

using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::db::Database;
using hedc::db::ExecOptions;
using hedc::db::Value;

struct QueryResult {
  double rows_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t matches = -1;
};

QueryResult RunQuery(Database* db, const std::string& sql,
                     const std::vector<Value>& params, int64_t table_rows,
                     int reps) {
  QueryResult out;
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    auto rs = db->Execute(sql, params);
    auto end = std::chrono::steady_clock::now();
    if (!rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rs.status().ToString().c_str());
      std::exit(1);
    }
    int64_t matches = rs.value().rows[0][0].AsInt();
    if (out.matches >= 0 && matches != out.matches) {
      std::fprintf(stderr, "non-deterministic match count\n");
      std::exit(1);
    }
    out.matches = matches;
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  out.p50_us = PercentileUs(lat_us, 0.50);
  out.p99_us = PercentileUs(lat_us, 0.99);
  // Median-derived throughput: one descheduling hiccup in a rep must
  // not swing mode-to-mode ratios on small machines.
  out.rows_per_sec = static_cast<double>(table_rows) / (out.p50_us / 1e6);
  return out;
}

ExecOptions ModeOptions(int threads, bool zone_maps) {
  ExecOptions opts;
  opts.zone_maps = zone_maps;
  opts.scan_threads = threads;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int64_t kRows = smoke ? 8000 : 200000;
  const int kReps = smoke ? 3 : 31;

  Database db;
  if (!db.Execute("CREATE TABLE ev (id INT PRIMARY KEY, t REAL, e INT, "
                  "tag TEXT)")
           .ok()) {
    std::fprintf(stderr, "CREATE TABLE failed\n");
    return 1;
  }
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<int64_t> energy(0, 999);
  const char* kTags[] = {"flare", "grb", "quiet", "other"};
  for (int64_t i = 0; i < kRows; ++i) {
    auto r = db.Execute("INSERT INTO ev VALUES (?, ?, ?, ?)",
                        {Value::Int(i + 1),
                         Value::Real(static_cast<double>(i)),  // clustered
                         Value::Int(energy(rng)),
                         Value::Text(kTags[i % 4])});
    if (!r.ok()) {
      std::fprintf(stderr, "INSERT failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
  }

  struct Mode {
    const char* name;
    ExecOptions opts;
  };
  const Mode kModes[] = {
      {"vec_t1", ModeOptions(1, false)},
      {"vecpar_t2", ModeOptions(2, false)},
      {"vecpar_t4", ModeOptions(4, false)},
      {"vecpar_t8", ModeOptions(8, false)},
  };
  struct Sel {
    const char* name;
    const char* sql;
  };
  const Sel kSels[] = {
      {"lowsel", "SELECT COUNT(*) FROM ev WHERE e < 10"},
      {"highsel", "SELECT COUNT(*) FROM ev WHERE e < 900"},
  };

  std::vector<BenchRow> rows;
  std::printf("%-22s %14s %12s %12s %10s\n", "mode", "rows/sec", "p50_us",
              "p99_us", "matches");
  for (const Sel& sel : kSels) {
    int64_t matches = -1;
    for (const Mode& mode : kModes) {
      db.set_exec_options(mode.opts);
      QueryResult qr = RunQuery(&db, sel.sql, {}, kRows, kReps);
      if (matches >= 0 && qr.matches != matches) {
        std::fprintf(stderr, "mode %s disagrees on %s: %lld vs %lld\n",
                     mode.name, sel.name,
                     static_cast<long long>(qr.matches),
                     static_cast<long long>(matches));
        return 1;
      }
      matches = qr.matches;
      std::string label = std::string(sel.name) + "_" + mode.name;
      std::printf("%-22s %14.0f %12.1f %12.1f %10lld\n", label.c_str(),
                  qr.rows_per_sec, qr.p50_us, qr.p99_us,
                  static_cast<long long>(qr.matches));
      rows.push_back(BenchRow{
          label, Source::kMeasured,
          {{"throughput_per_sec", qr.rows_per_sec},
           {"p50_us", qr.p50_us},
           {"p99_us", qr.p99_us},
           {"matches", static_cast<double>(qr.matches)}}});
    }
  }

  // Zone-map section: range predicate on the clustered column touching
  // ~5% of the id space. Zone maps should prune the other ~95% of
  // morsels wholesale.
  const std::string zone_sql = "SELECT COUNT(*) FROM ev WHERE t < " +
                               std::to_string(kRows / 20) + ".0";
  int64_t zone_matches = -1;
  double pruned_fraction = 0;
  for (bool zones : {false, true}) {
    db.set_exec_options(ModeOptions(1, zones));
    int64_t pruned_before = db.stats().morsels_pruned.load();
    QueryResult qr = RunQuery(&db, zone_sql, {}, kRows, kReps);
    if (zone_matches >= 0 && qr.matches != zone_matches) {
      std::fprintf(stderr, "zone-map run changed the result\n");
      return 1;
    }
    zone_matches = qr.matches;
    int64_t pruned = db.stats().morsels_pruned.load() - pruned_before;
    int64_t total_morsels =
        static_cast<int64_t>(db.GetTable("ev")->num_morsels()) * kReps;
    pruned_fraction =
        total_morsels > 0
            ? static_cast<double>(pruned) / static_cast<double>(total_morsels)
            : 0;
    std::string label = std::string("range_zone_") + (zones ? "on" : "off");
    std::printf("%-22s %14.0f %12.1f %12.1f %10lld  pruned=%.0f%%\n",
                label.c_str(), qr.rows_per_sec, qr.p50_us, qr.p99_us,
                static_cast<long long>(qr.matches), pruned_fraction * 100);
    rows.push_back(BenchRow{
        label, Source::kMeasured,
        {{"throughput_per_sec", qr.rows_per_sec},
         {"p50_us", qr.p50_us},
         {"p99_us", qr.p99_us},
         {"matches", static_cast<double>(qr.matches)},
         {"zone_pruned_fraction", pruned_fraction}}});
  }

  std::printf("\nzone maps pruned %.0f%% of morsels on the range predicate\n",
              pruned_fraction * 100);

  if (!hedc::bench::WriteBenchJson("BENCH_query_exec.json", "query_exec",
                                   rows)) {
    std::fprintf(stderr, "cannot write BENCH_query_exec.json\n");
    return 1;
  }
  return 0;
}
