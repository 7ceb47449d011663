// Ablation (§4.3): dynamic name mapping costs two extra indexed queries
// per resolution; in exchange, relocation touches only location tuples.
// Compares: (a) cold name resolution through the location tables, (b) the
// sharded read-through cache eliding both queries on warm hits, (c) a
// hard-coded static path (what a system without location tables would
// do), (d) the cost of relocating 1000 items under each scheme — with
// name mapping it is one UPDATE statement; with static paths every
// referencing tuple must be rewritten.
//
// Always writes BENCH_name_mapping.json (cold two-query path vs warm
// cache, throughput + p50/p99). `--smoke` runs a shrunken measurement and
// skips the google-benchmark suite (bench-smoke ctest label).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "archive/name_mapper.h"
#include "bench_json.h"
#include "db/database.h"

namespace {

using hedc::Config;
using hedc::archive::NameMapper;
using hedc::archive::NameType;
using hedc::bench::BenchRow;
using hedc::bench::Source;
using hedc::bench::PercentileUs;
using hedc::db::Database;
using hedc::db::Value;

constexpr int kItems = 1000;

Config NoCacheConfig() {
  Config config;
  config.Set("name_mapper.cache_capacity", "0");
  return config;
}

struct Fixture {
  // `config` controls the resolution cache; the ablation keeps a
  // cacheless mapper so (a) still measures the paper's two-query cost.
  explicit Fixture(Config config = NoCacheConfig(), int items = kItems)
      : items(items), mapper(&db, std::move(config)) {
    mapper.Init();
    mapper.RegisterArchive(1, "disk", "raid1");
    mapper.RegisterArchive(2, "disk", "raid2");
    for (int i = 1; i <= items; ++i) {
      mapper.AddLocation(i, NameType::kFilename, 1, "raw/2002");
    }
    // The "static path" alternative: paths denormalized into the domain
    // tuples themselves.
    db.Execute("CREATE TABLE static_refs (item_id INT PRIMARY KEY, "
               "full_path TEXT)");
    db.Execute("CREATE INDEX static_by_id ON static_refs (item_id) "
               "USING HASH");
    for (int i = 1; i <= items; ++i) {
      db.Execute("INSERT INTO static_refs VALUES (?, ?)",
                 {Value::Int(i),
                  Value::Text("/hedc/raid1/raw/2002/" + std::to_string(i))});
    }
  }

  int items;
  Database db;
  NameMapper mapper;
};

Fixture* GetFixture() {
  static Fixture* const kFixture = new Fixture();
  return kFixture;
}

void BM_ResolveViaLocationTables(benchmark::State& state) {
  Fixture* f = GetFixture();
  int64_t item = 1;
  for (auto _ : state) {
    auto name = f->mapper.Resolve(item, NameType::kFilename);
    benchmark::DoNotOptimize(name);
    item = item % kItems + 1;
  }
  state.SetLabel("2 indexed queries per resolution (cache off)");
}
BENCHMARK(BM_ResolveViaLocationTables);

void BM_ResolveWarmCache(benchmark::State& state) {
  static Fixture* const kCached = new Fixture(Config());
  int64_t item = 1;
  for (auto _ : state) {
    auto name = kCached->mapper.Resolve(item, NameType::kFilename);
    benchmark::DoNotOptimize(name);
    item = item % kItems + 1;
  }
  state.SetLabel("sharded LRU hit, both queries elided");
}
BENCHMARK(BM_ResolveWarmCache);

void BM_ResolveStaticPath(benchmark::State& state) {
  Fixture* f = GetFixture();
  int64_t item = 1;
  for (auto _ : state) {
    auto rs = f->db.Execute(
        "SELECT full_path FROM static_refs WHERE item_id = ?",
        {Value::Int(item)});
    benchmark::DoNotOptimize(rs);
    item = item % kItems + 1;
  }
  state.SetLabel("1 indexed query, but paths are frozen");
}
BENCHMARK(BM_ResolveStaticPath);

void BM_RelocateAllWithNameMapping(benchmark::State& state) {
  Fixture* f = GetFixture();
  bool to_two = true;
  for (auto _ : state) {
    // Flip every item between archives: a single statement touching only
    // the location section.
    f->mapper.RelocateArchive(to_two ? 1 : 2, to_two ? 2 : 1);
    to_two = !to_two;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  state.SetLabel("live relocation = UPDATE on location tuples only");
}
BENCHMARK(BM_RelocateAllWithNameMapping);

void BM_RelocateAllWithStaticPaths(benchmark::State& state) {
  Fixture* f = GetFixture();
  bool to_two = true;
  for (auto _ : state) {
    // Every denormalized tuple must be rewritten individually.
    for (int i = 1; i <= kItems; ++i) {
      f->db.Execute(
          "UPDATE static_refs SET full_path = ? WHERE item_id = ?",
          {Value::Text(std::string("/hedc/") +
                       (to_two ? "raid2" : "raid1") + "/raw/2002/" +
                       std::to_string(i)),
           Value::Int(i)});
    }
    to_two = !to_two;
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  state.SetLabel("every referencing tuple rewritten");
}
BENCHMARK(BM_RelocateAllWithStaticPaths);

// Measures one mapper for `samples` resolutions round-robin over its
// items and returns a JSON row. Cold = cacheless two-query path; warm =
// cache pre-touched once per item.
BenchRow MeasureResolve(const std::string& label, NameMapper* mapper,
                        int items, int samples) {
  std::vector<double> lat_us;
  lat_us.reserve(samples);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < samples; ++i) {
    auto op_start = std::chrono::steady_clock::now();
    auto name = mapper->Resolve(i % items + 1, NameType::kFilename);
    benchmark::DoNotOptimize(name);
    lat_us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - op_start)
                         .count());
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return BenchRow{label, Source::kMeasured,
                  {{"throughput_per_sec", samples / seconds},
                   {"p50_us", PercentileUs(lat_us, 0.50)},
                   {"p99_us", PercentileUs(lat_us, 0.99)}}};
}

int WriteJsonReport(bool smoke) {
  int items = smoke ? 100 : kItems;
  int samples = smoke ? 500 : 20000;
  Fixture cold(NoCacheConfig(), items);
  Fixture warm(Config(), items);
  for (int i = 1; i <= items; ++i) {
    warm.mapper.Resolve(i, NameType::kFilename);
  }
  std::vector<BenchRow> rows;
  rows.push_back(
      MeasureResolve("cold_two_query", &cold.mapper, items, samples));
  rows.push_back(MeasureResolve("warm_cache", &warm.mapper, items, samples));
  double speedup = rows[0].metrics[1].second > 0
                       ? rows[0].metrics[1].second / rows[1].metrics[1].second
                       : 0;
  std::printf("name mapping: cold p50 %.2f us, warm p50 %.2f us "
              "(%.1fx, target >= 10x)\n",
              rows[0].metrics[1].second, rows[1].metrics[1].second, speedup);
  if (!hedc::bench::WriteBenchJson("BENCH_name_mapping.json", "name_mapping",
                                   rows)) {
    std::fprintf(stderr, "failed to write BENCH_name_mapping.json\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int rc = WriteJsonReport(smoke);
  if (rc != 0 || smoke) return rc;

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
