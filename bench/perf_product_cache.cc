// Derived-product cache: cold execution vs warm cache hits vs coalesced
// concurrent misses, plus a hit-rate sweep.
//
// The PL frontend runs a deliberately CPU-heavy routine through the full
// four-phase pipeline. Three scenarios:
//  * cold: N distinct requests, every one executes on an interpreter;
//  * warm: the same N requests again, all served from the cache (decode
//    only — the ISSUE acceptance asks for >= 5x speedup here);
//  * coalesced_n8: 8 identical concurrent requests; single-flight makes
//    exactly one execute and 7 coalesce onto the leader's flight.
// Then a sweep over request streams with 0..90% repeated keys showing
// throughput as a function of hit rate.
//
// Emits BENCH_product_cache.json. `--smoke` shrinks request counts for
// the bench-smoke ctest label.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/metrics.h"
#include "pl/frontend.h"
#include "pl/product_cache.h"
#include "rhessi/telemetry.h"

namespace {

using hedc::Counter;
using hedc::MetricsRegistry;
using hedc::Result;
using hedc::Status;
using hedc::VirtualClock;
using hedc::bench::BenchRow;
using hedc::bench::Source;
using hedc::bench::PercentileUs;
namespace analysis = hedc::analysis;
namespace pl = hedc::pl;
namespace rhessi = hedc::rhessi;

std::atomic<int> g_runs{0};

// CPU-bound routine: the "expensive IDL procedure" the cache avoids.
class BenchRoutine : public analysis::AnalysisRoutine {
 public:
  BenchRoutine(int work_reps, std::function<void()> gate = nullptr)
      : work_reps_(work_reps), gate_(std::move(gate)) {}

  std::string name() const override { return "bench"; }

  Result<analysis::AnalysisProduct> Run(
      const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params) const override {
    if (gate_) gate_();
    double acc = 0;
    std::vector<double> bins(64, 0.0);
    for (int rep = 0; rep < work_reps_; ++rep) {
      for (const rhessi::PhotonEvent& photon : photons) {
        acc += std::sin(photon.energy_kev * (rep + 1));
        bins[static_cast<size_t>(photon.energy_kev) % bins.size()] += 1;
      }
    }
    g_runs.fetch_add(1, std::memory_order_relaxed);
    analysis::AnalysisProduct product;
    product.routine = "bench";
    product.metadata["acc"] = std::to_string(acc);
    product.metadata["bins"] = params.Get("bins", "0");
    analysis::Series series;
    for (size_t i = 0; i < bins.size(); ++i) {
      series.x.push_back(static_cast<double>(i));
      series.y.push_back(bins[i]);
    }
    product.series = series;
    product.rendered.assign(16 * 1024, 0x5A);  // a "GIF" payload
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const analysis::AnalysisParams&) const override {
    return static_cast<double>(photon_count) * work_reps_;
  }

 private:
  int work_reps_;
  std::function<void()> gate_;
};

// Minimal PL stack over a memory-only product cache.
struct Stack {
  Stack(size_t dispatchers, size_t servers, const std::string& prefix,
        int work_reps, std::function<void()> gate = nullptr) {
    registry = std::make_unique<analysis::RoutineRegistry>();
    registry->Register(std::make_unique<BenchRoutine>(work_reps, gate));
    manager = std::make_unique<pl::IdlServerManager>(
        "host0", pl::IdlServerManager::Options{});
    for (size_t i = 0; i < servers; ++i) {
      manager->AddServer(std::make_unique<pl::IdlServer>(
          "idl" + std::to_string(i), registry.get(), &clock,
          pl::IdlServer::Options{}));
    }
    directory.Register("host0", manager.get(), "local");
    pl::ProductCache::Options cache_options;
    cache_options.metric_prefix = prefix;
    cache = std::make_unique<pl::ProductCache>(nullptr, cache_options);
    pl::Frontend::Options fe_options;
    fe_options.dispatcher_threads = dispatchers;
    frontend = std::make_unique<pl::Frontend>(
        &directory, &predictor, &clock, pl::Frontend::Committer(),
        fe_options);
    frontend->set_product_cache(cache.get());
  }

  pl::ProcessingRequest Request(int64_t unit_id,
                                const rhessi::PhotonList& photons) {
    pl::ProcessingRequest request;
    request.routine = "bench";
    request.params.SetInt("bins", 64);
    request.photons = photons;
    request.input_units = {{unit_id, 1}};
    return request;
  }

  VirtualClock clock;
  std::unique_ptr<analysis::RoutineRegistry> registry;
  std::unique_ptr<pl::IdlServerManager> manager;
  pl::GlobalDirectory directory;
  pl::DurationPredictor predictor;
  std::unique_ptr<pl::ProductCache> cache;
  std::unique_ptr<pl::Frontend> frontend;
};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measured {
  std::vector<double> latencies_us;
  double seconds = 0;
};

// Runs the given unit-id sequence through the frontend one request at a
// time, timing each end-to-end.
Measured RunSequential(Stack& stack, const std::vector<int64_t>& units,
                       const rhessi::PhotonList& photons) {
  Measured measured;
  double start = NowUs();
  for (int64_t unit : units) {
    double t0 = NowUs();
    Result<int64_t> id =
        stack.frontend->Submit(stack.Request(unit, photons));
    if (!id.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    pl::RequestOutcome outcome = stack.frontend->Wait(id.value());
    if (outcome.state != pl::RequestState::kDelivered) {
      std::fprintf(stderr, "request failed: %s\n",
                   outcome.status.ToString().c_str());
      std::exit(1);
    }
    measured.latencies_us.push_back(NowUs() - t0);
  }
  measured.seconds = (NowUs() - start) / 1e6;
  return measured;
}

BenchRow Row(const std::string& label, const Measured& measured) {
  BenchRow row(label, Source::kMeasured);
  double n = static_cast<double>(measured.latencies_us.size());
  row.metrics.emplace_back("throughput_per_sec",
                           measured.seconds > 0 ? n / measured.seconds : 0);
  row.metrics.emplace_back("p50_us",
                           PercentileUs(measured.latencies_us, 0.5));
  row.metrics.emplace_back("p99_us",
                           PercentileUs(measured.latencies_us, 0.99));
  return row;
}

int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Default()->GetCounter(name)->Value();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 30;
  telemetry_options.background_rate = 60;
  telemetry_options.flares_per_hour = 0;
  telemetry_options.saa_per_hour = 0;
  telemetry_options.seed = 7;
  rhessi::PhotonList photons =
      rhessi::GenerateTelemetry(telemetry_options).photons;

  const int work_reps = smoke ? 200 : 1500;
  const int distinct = smoke ? 4 : 24;
  std::vector<BenchRow> rows;

  // --- cold then warm over the same distinct request set ---------------
  {
    Stack stack(2, 2, "bench_pc_main", work_reps);
    std::vector<int64_t> units;
    for (int i = 0; i < distinct; ++i) units.push_back(1000 + i);

    g_runs.store(0);
    Measured cold = RunSequential(stack, units, photons);
    BenchRow cold_row = Row("cold", cold);
    cold_row.metrics.emplace_back("executions", g_runs.load());
    rows.push_back(cold_row);

    g_runs.store(0);
    Measured warm = RunSequential(stack, units, photons);
    BenchRow warm_row = Row("warm", warm);
    warm_row.metrics.emplace_back("executions", g_runs.load());
    double cold_p50 = PercentileUs(cold.latencies_us, 0.5);
    double warm_p50 = PercentileUs(warm.latencies_us, 0.5);
    double speedup = warm_p50 > 0 ? cold_p50 / warm_p50 : 0;
    warm_row.metrics.emplace_back("speedup_vs_cold", speedup);
    warm_row.metrics.emplace_back(
        "hits", static_cast<double>(CounterValue("bench_pc_main.hits")));
    rows.push_back(warm_row);
    std::printf("cold p50 %.0fus  warm p50 %.0fus  speedup %.1fx\n",
                cold_p50, warm_p50, speedup);
  }

  // --- 8 identical concurrent requests: single-flight ------------------
  {
    constexpr int kConcurrent = 8;
    pl::ProductCache* cache_ptr = nullptr;
    // The leader stalls until the other 7 have coalesced (bounded), so
    // the row is deterministic rather than racing submission order.
    pl::ProductCacheKey key;
    auto gate = [&] {
      double deadline = NowUs() + 2e6;
      while (cache_ptr->WaitersFor(key) < kConcurrent - 1 &&
             NowUs() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    Stack stack(kConcurrent, kConcurrent, "bench_pc_coal", work_reps,
                gate);
    cache_ptr = stack.cache.get();
    pl::ProcessingRequest prototype = stack.Request(1, photons);
    key = pl::MakeProductCacheKey(prototype.routine, prototype.params,
                                  prototype.input_units);

    g_runs.store(0);
    Measured measured;
    double start = NowUs();
    std::vector<int64_t> ids;
    for (int i = 0; i < kConcurrent; ++i) {
      ids.push_back(
          stack.frontend->Submit(stack.Request(1, photons)).value());
    }
    for (int64_t id : ids) {
      pl::RequestOutcome outcome = stack.frontend->Wait(id);
      if (outcome.state != pl::RequestState::kDelivered) {
        std::fprintf(stderr, "coalesced request failed: %s\n",
                     outcome.status.ToString().c_str());
        return 1;
      }
      measured.latencies_us.push_back(NowUs() - start);
    }
    measured.seconds = (NowUs() - start) / 1e6;
    BenchRow row = Row("coalesced_n8", measured);
    row.metrics.emplace_back("executions", g_runs.load());
    row.metrics.emplace_back(
        "coalesced",
        static_cast<double>(CounterValue("bench_pc_coal.coalesced")));
    rows.push_back(row);
    std::printf("coalesced_n8: executions=%d coalesced=%lld\n",
                g_runs.load(),
                static_cast<long long>(
                    CounterValue("bench_pc_coal.coalesced")));
  }

  // --- hit-rate sweep ---------------------------------------------------
  {
    const int stream_len = smoke ? 8 : 50;
    const int warm_keys = smoke ? 2 : 8;
    for (int hit_pct : {0, 25, 50, 75, 90}) {
      std::string prefix = "bench_pc_hr" + std::to_string(hit_pct);
      Stack stack(2, 2, prefix, work_reps);
      // Pre-warm a small working set.
      std::vector<int64_t> warm_units;
      for (int i = 0; i < warm_keys; ++i) warm_units.push_back(100 + i);
      RunSequential(stack, warm_units, photons);
      int64_t hits_before = CounterValue(prefix + ".hits");

      // Request stream: hit_pct% of requests reuse a warmed key.
      std::vector<int64_t> units;
      int64_t fresh = 100000;
      for (int i = 0; i < stream_len; ++i) {
        if ((i * 97 + 13) % 100 < hit_pct) {
          units.push_back(100 + i % warm_keys);
        } else {
          units.push_back(fresh++);
        }
      }
      Measured measured = RunSequential(stack, units, photons);
      BenchRow row =
          Row("hitrate_" + std::to_string(hit_pct), measured);
      double observed_hits = static_cast<double>(
          CounterValue(prefix + ".hits") - hits_before);
      row.metrics.emplace_back("hit_fraction", observed_hits / stream_len);
      rows.push_back(row);
    }
  }

  if (!hedc::bench::WriteBenchJson("BENCH_product_cache.json",
                                   "product_cache", rows)) {
    std::fprintf(stderr, "cannot write BENCH_product_cache.json\n");
    return 1;
  }
  std::printf("wrote BENCH_product_cache.json (%zu rows)\n", rows.size());
  return 0;
}
