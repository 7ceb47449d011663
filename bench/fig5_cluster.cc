// Figure 5 companion: middle-tier scale-out measured on a real booted
// cluster.
//
// The calibrated DES (fig5_middle_tier_scaleout, model_redirect_nodes_*
// rows) projects the paper's scale-out curve; this harness measures what
// the code in src/cluster actually does. It boots N ClusterNodes with
// ClusterOptions defaults, each a full DM stack behind a TcpRmiServer on
// the runner's shared reactor (one thread per core over one epoll set,
// FromConfig of an empty Config), and drives closed-loop clients through
// RoutedDmPool over loopback TCP with the deterministic cluster workload.
// Nothing is injected: no sleeps, no floors, no modeled capacity. All N
// nodes run in one process on one host, so the curve shows how the routed
// path shares that host's cores, not how separate hosts would scale.
//
// Emits BENCH_cluster_scaleout.json with measured cluster_nodes_{1,2,4,8}
// rows; bench/validate_bench_json.py prints their speedups next to the
// modeled model_redirect_nodes_* rows when both files are present.
// `--smoke` shrinks the sweep to N={1,2} and a short window for the
// bench-smoke ctest label.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "cluster/cluster.h"
#include "testbed/cluster_workload.h"

namespace {

using namespace hedc;
using bench::BenchRow;
using bench::PercentileUs;
using bench::Source;

struct SweepConfig {
  std::vector<int> node_counts;
  int clients = 24;  // closed-loop client threads (sessions)
  Micros warmup = 300 * kMicrosPerMilli;
  Micros window = 2500 * kMicrosPerMilli;
};

struct SweepResult {
  double throughput_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  int64_t calls_ok = 0;
  int64_t errors = 0;
};

// Boots an N-node cluster and drives it with closed-loop clients; only
// calls completing inside the measurement window count.
bool RunOne(const SweepConfig& config, int nodes, SweepResult* out) {
  cluster::ClusterOptions options = cluster::ClusterOptions::FromConfig(
      Config());
  options.nodes = nodes;
  MetricsRegistry metrics;
  cluster::ClusterRunner runner(options, RealClock::Instance(), &metrics);
  if (!runner.Start().ok()) return false;
  testbed::ClusterWorkload workload;
  for (int n = 0; n < nodes; ++n) {
    if (!workload.Seed(runner.node(n)->db()).ok()) return false;
  }

  Clock* clock = RealClock::Instance();
  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  std::atomic<int64_t> ok_calls{0};
  std::atomic<int64_t> errors{0};
  std::mutex latency_mu;
  std::vector<double> latencies_us;

  std::vector<std::thread> clients;
  clients.reserve(config.clients);
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      auto pool = std::make_unique<cluster::RoutedDmPool>(
          &runner.membership(), &runner.router(), clock,
          cluster::RoutedDmPool::Options{}, &metrics);
      std::string session_key = "client-" + std::to_string(c);
      std::vector<double> local_latencies;
      for (int seq = 0; !done.load(std::memory_order_relaxed); ++seq) {
        testbed::ClusterWorkload::Query query = workload.QueryAt(seq);
        Micros start = clock->Now();
        auto rs = pool->Execute(session_key, query.sql, query.params);
        Micros elapsed = clock->Now() - start;
        if (!measuring.load(std::memory_order_relaxed)) continue;
        if (rs.ok()) {
          ok_calls.fetch_add(1, std::memory_order_relaxed);
          local_latencies.push_back(static_cast<double>(elapsed));
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mu);
      latencies_us.insert(latencies_us.end(), local_latencies.begin(),
                          local_latencies.end());
    });
  }

  clock->SleepFor(config.warmup);
  Micros t0 = clock->Now();
  measuring.store(true);
  clock->SleepFor(config.window);
  measuring.store(false);
  double elapsed_us = static_cast<double>(clock->Now() - t0);
  done.store(true);
  for (auto& t : clients) t.join();

  out->calls_ok = ok_calls.load();
  out->errors = errors.load();
  out->throughput_per_sec = 1e6 * static_cast<double>(out->calls_ok) /
                            elapsed_us;
  out->p50_us = PercentileUs(latencies_us, 0.50);
  out->p99_us = PercentileUs(latencies_us, 0.99);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  SweepConfig config;
  if (smoke) {
    config.node_counts = {1, 2};
    config.clients = 6;
    config.warmup = 100 * kMicrosPerMilli;
    config.window = 400 * kMicrosPerMilli;
  } else {
    config.node_counts = {1, 2, 4, 8};
  }

  std::printf("Measured cluster scale-out (%d closed-loop clients, all "
              "nodes in one process on %u hardware threads)\n",
              config.clients, std::thread::hardware_concurrency());

  std::vector<BenchRow> rows;
  double base_throughput = 0;
  for (int nodes : config.node_counts) {
    SweepResult r;
    if (!RunOne(config, nodes, &r)) {
      std::fprintf(stderr, "cluster boot failed at N=%d\n", nodes);
      return 1;
    }
    if (nodes == config.node_counts.front()) {
      base_throughput = r.throughput_per_sec;
    }
    double speedup =
        base_throughput > 0 ? r.throughput_per_sec / base_throughput : 0;
    std::printf("  nodes=%d: %8.0f req/s (%.2fx)  p50 %6.0fus  "
                "p99 %7.0fus  (%lld ok, %lld errors)\n",
                nodes, r.throughput_per_sec, speedup, r.p50_us, r.p99_us,
                static_cast<long long>(r.calls_ok),
                static_cast<long long>(r.errors));
    rows.push_back(BenchRow{
        "cluster_nodes_" + std::to_string(nodes), Source::kMeasured,
        {{"nodes", static_cast<double>(nodes)},
         {"throughput_per_sec", r.throughput_per_sec},
         {"speedup_vs_1", speedup},
         {"p50_us", r.p50_us},
         {"p99_us", r.p99_us},
         {"clients", static_cast<double>(config.clients)},
         {"calls_ok", static_cast<double>(r.calls_ok)},
         {"errors", static_cast<double>(r.errors)}}});
  }

  if (!bench::WriteBenchJson("BENCH_cluster_scaleout.json",
                             "cluster_scaleout", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
