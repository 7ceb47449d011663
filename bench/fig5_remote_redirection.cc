// Figure 5 companion: networked call redirection over real loopback TCP.
//
// Measures the RMI transport the middle tier uses to redirect database
// calls to remote DataManager nodes (§5.4): (a) raw round-trips over a
// TcpChannel, (b) the same traffic through a ResilientChannel while a
// seeded ChaosChannel drops/truncates frames, and (c) failover throughput
// when the primary node is killed mid-run and the circuit breaker
// redirects to a fallback node. The measured loopback round-trip then
// feeds the browse model's `redirect_hop_seconds` to project the fig5
// scale-out curve with networked (rather than co-located) redirection.
// Emits BENCH_remote_redirection.json; `--smoke` shrinks call counts and
// simulated time for the bench-smoke ctest label.
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cluster/node.h"
#include "dm/chaos_channel.h"
#include "dm/resilient_channel.h"
#include "dm/tcp_remote.h"
#include "testbed/browse_model.h"

namespace {

using namespace hedc;
using bench::BenchRow;
using bench::Source;
using bench::PercentileUs;

// One booted cluster node: a full DM stack whose identity user (id 1)
// is `name`, behind a TcpRmiServer.
struct BootedNode : cluster::ClusterNode {
  explicit BootedNode(const std::string& name) : ClusterNode(name, {}) {
    ok = Boot().ok();
  }
  bool ok = false;
};

struct Measured {
  std::vector<double> latencies_us;
  double elapsed_us = 0;
  int64_t successes = 0;

  double throughput_per_sec() const {
    return elapsed_us > 0 ? 1e6 * static_cast<double>(successes) / elapsed_us
                          : 0;
  }
};

// Drives `calls` queries through `remote`, timing each round-trip.
Measured Drive(dm::RemoteDm* remote, int calls,
               const std::function<void(int)>& between_calls = nullptr) {
  Clock* clock = RealClock::Instance();
  Measured m;
  Micros t0 = clock->Now();
  for (int i = 0; i < calls; ++i) {
    if (between_calls) between_calls(i);
    Micros start = clock->Now();
    auto rs = remote->Execute("SELECT name FROM users WHERE user_id = ?",
                              {db::Value::Int(1)});
    Micros elapsed = clock->Now() - start;
    if (rs.ok() && rs.value().num_rows() == 1) {
      ++m.successes;
      m.latencies_us.push_back(static_cast<double>(elapsed));
    }
  }
  m.elapsed_us = static_cast<double>(clock->Now() - t0);
  return m;
}

dm::ResilientChannel::Options RetryOptions() {
  dm::ResilientChannel::Options options;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff = kMicrosPerMilli;
  options.retry.max_backoff = 10 * kMicrosPerMilli;
  options.retry.jitter = 0.2;
  return options;
}

BenchRow Row(const std::string& label, const Measured& m,
             std::vector<std::pair<std::string, double>> extra = {}) {
  BenchRow row{label, Source::kMeasured,
               {{"throughput_per_sec", m.throughput_per_sec()},
                {"p50_us", PercentileUs(m.latencies_us, 0.50)},
                {"p99_us", PercentileUs(m.latencies_us, 0.99)},
                {"calls_ok", static_cast<double>(m.successes)}}};
  for (auto& kv : extra) row.metrics.push_back(std::move(kv));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int kCalls = smoke ? 150 : 1500;
  const double sim_seconds = smoke ? 60 : 600;
  std::vector<BenchRow> rows;

  std::printf("Remote redirection bench (loopback TCP, %d calls/scenario)\n",
              kCalls);

  // (a) Raw TcpChannel round-trips against one node.
  double direct_p50_us = 0;
  {
    BootedNode node("alpha");
    if (!node.ok) {
      std::fprintf(stderr, "node setup failed\n");
      return 1;
    }
    dm::TcpChannel channel("127.0.0.1", node.port());
    dm::RemoteDm remote(&channel, node.metrics());
    (void)Drive(&remote, smoke ? 20 : 100);  // warm up connection + caches
    Measured m = Drive(&remote, kCalls);
    direct_p50_us = PercentileUs(m.latencies_us, 0.50);
    std::printf("  tcp_direct:      %8.0f req/s  p50 %5.0fus  p99 %5.0fus\n",
                m.throughput_per_sec(), direct_p50_us,
                PercentileUs(m.latencies_us, 0.99));
    rows.push_back(Row("tcp_direct", m));
  }

  // (b) Same traffic with seeded chaos on the wire and retries on top.
  {
    BootedNode node("alpha");
    dm::TcpChannel tcp_channel("127.0.0.1", node.port());
    dm::ChaosOptions chaos;
    chaos.drop_p = 0.08;
    chaos.truncate_p = 0.02;
    chaos.duplicate_p = 0.02;
    chaos.seed = 7;
    dm::ChaosChannel chaotic(&tcp_channel, RealClock::Instance(), chaos);
    dm::ResilientChannel::Options options = RetryOptions();
    options.failure_threshold = 1 << 30;  // retries only, no redirection
    dm::ResilientChannel channel(&chaotic, nullptr, RealClock::Instance(),
                                 options);
    dm::RemoteDm remote(&channel, node.metrics());
    Measured m = Drive(&remote, kCalls);
    dm::ResilientChannel::Stats stats = channel.stats();
    std::printf("  tcp_chaos_retry: %8.0f req/s  p50 %5.0fus  p99 %5.0fus"
                "  (%lld retries)\n",
                m.throughput_per_sec(), PercentileUs(m.latencies_us, 0.50),
                PercentileUs(m.latencies_us, 0.99),
                static_cast<long long>(stats.retries));
    rows.push_back(Row("tcp_chaos_retry", m,
                       {{"retries", static_cast<double>(stats.retries)},
                        {"failures", static_cast<double>(stats.failures)}}));
  }

  // (c) Failover: kill the primary node mid-run; the breaker redirects the
  // remaining calls to the fallback node.
  {
    BootedNode primary("alpha");
    BootedNode fallback("bravo");
    dm::TcpChannel to_primary("127.0.0.1", primary.port(),
                              /*recv_timeout=*/500 * kMicrosPerMilli);
    dm::TcpChannel to_fallback("127.0.0.1", fallback.port());
    dm::ResilientChannel::Options options = RetryOptions();
    options.failure_threshold = 2;
    options.cooldown = 60 * kMicrosPerSecond;  // stay on the fallback
    dm::ResilientChannel channel(&to_primary, &to_fallback,
                                 RealClock::Instance(), options);
    dm::RemoteDm remote(&channel);
    Measured m = Drive(&remote, kCalls, [&](int i) {
      if (i == kCalls / 2) primary.StopServing();
    });
    dm::ResilientChannel::Stats stats = channel.stats();
    std::printf("  tcp_failover:    %8.0f req/s  p50 %5.0fus  p99 %5.0fus"
                "  (%lld redirects, %lld failures)\n",
                m.throughput_per_sec(), PercentileUs(m.latencies_us, 0.50),
                PercentileUs(m.latencies_us, 0.99),
                static_cast<long long>(stats.redirects),
                static_cast<long long>(stats.failures));
    rows.push_back(Row("tcp_failover", m,
                       {{"redirects", static_cast<double>(stats.redirects)},
                        {"breaker_opens",
                         static_cast<double>(stats.breaker_opens)},
                        {"failures", static_cast<double>(stats.failures)}}));
  }

  // (d) Feed the measured loopback hop into the fig5 browse model: the
  // scale-out curve when every database query is redirected over the wire.
  double hop_seconds = direct_p50_us / 1e6;
  std::printf("\n  modeled fig5 scale-out with a %.0fus redirect hop "
              "per query:\n", direct_p50_us);
  for (int nodes = 1; nodes <= 5; ++nodes) {
    testbed::BrowseCalibration calibration;
    calibration.redirect_hop_seconds = hop_seconds;
    testbed::BrowseResult r =
        testbed::RunBrowse(96, nodes, sim_seconds, calibration);
    std::printf("    nodes=%d: %6.1f req/s (db util %3.0f%%)\n", nodes,
                r.throughput_rps, 100 * r.db_utilization);
    rows.push_back(BenchRow{
        "model_redirect_nodes_" + std::to_string(nodes),
        Source::kModeled,
        {{"nodes", static_cast<double>(nodes)},
         {"throughput_per_sec", r.throughput_rps},
         {"db_utilization", r.db_utilization},
         {"redirect_hop_us", direct_p50_us},
         {"p50_us", r.p50_response_sec * 1e6},
         {"p99_us", r.p99_response_sec * 1e6}}});
  }
  std::printf("\nshape checks: chaos costs throughput but zero failed "
              "calls; failover keeps serving after the primary dies; the "
              "modeled curve still saturates the DBMS by five nodes.\n");

  if (!bench::WriteBenchJson("BENCH_remote_redirection.json",
                             "remote_redirection", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
