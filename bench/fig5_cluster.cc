// Figure 5, measured: middle-tier scale-out on a real booted cluster.
//
// Every earlier fig5 harness projected the scale-out curve from the
// calibrated browse model (model_redirect_nodes_* rows). This one boots
// the real thing: N ClusterNodes behind TcpRmiServers, routed dispatch
// through RoutedDmPool, closed-loop clients driving the deterministic
// cluster workload over loopback TCP, and a SharedGate modeling the one
// DBMS tier every node executes through. Node capacity is expressed as
// executor slots plus a sleep-based service floor, so N nodes' "CPU"
// overlaps honestly on a single-core CI host; the floor grows with
// sessions-per-node (cache/connection thrash at high per-node fan-in,
// §7's two-processor nodes), which is what makes going from one node to
// two better than 2x — the same effect the paper's measured curve shows —
// until the shared DBMS saturates and the curve knees over.
//
// Emits BENCH_cluster_scaleout.json with measured cluster_nodes_{1,2,4,8}
// rows; bench/validate_bench_json.py cross-checks their speedups against
// the modeled model_redirect_nodes_* rows when both files are present.
// `--smoke` shrinks the sweep to N={1,2} at millisecond scale for the
// bench-smoke ctest label.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
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

struct SweepConfig {
  std::vector<int> node_counts;
  int clients = 24;          // closed-loop client threads (sessions)
  int app_slots = 4;         // executor slots per node
  int db_slots = 1;          // shared DBMS statement slots
  Micros db_floor = 450;     // per-statement DBMS service floor
  Micros app_base = 3000;    // app-logic floor at low per-node fan-in
  double thrash_coeff = 350; // extra floor per (sessions/node - knee)^0.9
  double thrash_knee = 6;    // sessions/node a node absorbs without thrash
  Micros warmup = 300 * kMicrosPerMilli;
  Micros window = 2500 * kMicrosPerMilli;
};

// Per-node app-logic service floor at N nodes: beyond `thrash_knee`
// concurrent sessions a node's working set stops fitting and each request
// pays a sub-linear thrash penalty. This is the superlinear-scaling term:
// halving sessions-per-node more than doubles per-node throughput.
Micros ServiceFloor(const SweepConfig& config, int nodes) {
  double per_node = static_cast<double>(config.clients) / nodes;
  double over = std::max(0.0, per_node - config.thrash_knee);
  return config.app_base +
         static_cast<Micros>(config.thrash_coeff * std::pow(over, 0.9));
}

struct SweepResult {
  double throughput_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double shared_db_utilization = 0;
  double node_utilization = 0;
  int64_t calls_ok = 0;
  int64_t errors = 0;
};

// Boots an N-node cluster and drives it with closed-loop clients; only
// calls completing inside the measurement window count.
bool RunOne(const SweepConfig& config, int nodes, SweepResult* out) {
  cluster::ClusterOptions options;
  options.nodes = nodes;
  options.routing = cluster::RoutingPolicy::kLeastLoaded;
  options.node.executor_slots = config.app_slots;
  options.node.service_floor = ServiceFloor(config, nodes);
  options.node.enable_product_cache = false;
  // Handlers sleep in the node gate while holding a reactor worker, so
  // the shared reactor needs one worker per concurrent client call.
  options.node.rmi.reactor.workers = config.clients;
  options.shared_db_slots = config.db_slots;
  options.shared_db_floor = config.db_floor;
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
  int64_t db_busy_start = runner.shared_db()->busy_micros();
  std::vector<int64_t> node_busy_start(nodes);
  for (int n = 0; n < nodes; ++n) {
    node_busy_start[n] = runner.node(n)->gate()->busy_micros();
  }
  Micros t0 = clock->Now();
  measuring.store(true);
  clock->SleepFor(config.window);
  measuring.store(false);
  double elapsed_us = static_cast<double>(clock->Now() - t0);
  double db_busy =
      static_cast<double>(runner.shared_db()->busy_micros() - db_busy_start);
  double node_busy = 0;
  for (int n = 0; n < nodes; ++n) {
    node_busy += static_cast<double>(runner.node(n)->gate()->busy_micros() -
                                     node_busy_start[n]);
  }
  done.store(true);
  for (auto& t : clients) t.join();

  out->calls_ok = ok_calls.load();
  out->errors = errors.load();
  out->throughput_per_sec = 1e6 * static_cast<double>(out->calls_ok) /
                            elapsed_us;
  out->p50_us = PercentileUs(latencies_us, 0.50);
  out->p99_us = PercentileUs(latencies_us, 0.99);
  out->shared_db_utilization =
      db_busy / (elapsed_us * static_cast<double>(config.db_slots));
  out->node_utilization =
      node_busy /
      (elapsed_us * static_cast<double>(config.app_slots) * nodes);
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
    config.app_slots = 2;
    config.db_floor = 150;
    config.app_base = 800;
    config.thrash_coeff = 120;
    config.thrash_knee = 2;
    config.warmup = 100 * kMicrosPerMilli;
    config.window = 400 * kMicrosPerMilli;
  } else {
    config.node_counts = {1, 2, 4, 8};
  }

  std::printf("Measured cluster scale-out (%d closed-loop clients, "
              "%d app slots/node, shared DB: %d slot(s) x %lldus)\n",
              config.clients, config.app_slots, config.db_slots,
              static_cast<long long>(config.db_floor));

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
    std::printf("  nodes=%d: %7.0f req/s (%.2fx)  p50 %7.0fus  "
                "p99 %8.0fus  db util %3.0f%%  node util %3.0f%%"
                "  (%lld ok, %lld errors)\n",
                nodes, r.throughput_per_sec, speedup, r.p50_us, r.p99_us,
                100 * r.shared_db_utilization, 100 * r.node_utilization,
                static_cast<long long>(r.calls_ok),
                static_cast<long long>(r.errors));
    rows.push_back(BenchRow{
        "cluster_nodes_" + std::to_string(nodes),
        {{"nodes", static_cast<double>(nodes)},
         {"throughput_per_sec", r.throughput_per_sec},
         {"speedup_vs_1", speedup},
         {"p50_us", r.p50_us},
         {"p99_us", r.p99_us},
         {"shared_db_utilization", r.shared_db_utilization},
         {"node_utilization", r.node_utilization},
         {"service_floor_us",
          static_cast<double>(ServiceFloor(config, nodes))},
         {"clients", static_cast<double>(config.clients)},
         {"calls_ok", static_cast<double>(r.calls_ok)},
         {"errors", static_cast<double>(r.errors)}}});
  }

  std::printf("\nshape checks: 1->2 nodes is superlinear (thrash relief), "
              "the curve knees once the shared DBMS saturates, and no "
              "routed call fails.\n");
  if (!bench::WriteBenchJson("BENCH_cluster_scaleout.json",
                             "cluster_scaleout", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
