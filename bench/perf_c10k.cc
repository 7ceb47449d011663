// C10K transport bench: one epoll reactor serving 10,000+ concurrent
// keep-alive connections (ROADMAP 3).
//
// The harness forks the server into a child process — the environment
// caps open fds at 20k, and 10k client sockets plus 10k server sockets
// do not fit in one process — and holds N keep-alive connections open
// from the parent while a small thread pool round-robins echo calls over
// them (each thread over its own connections), measuring per-call
// latency. The claim under test is *flatness*: p99 at 10,000 open
// connections must stay within 2x of p99 at 100 (enforced on
// BENCH_c10k.json by bench/validate_bench_json.py), i.e. idle
// connections cost the reactor nothing. A thread-per-connection server
// cannot run this bench at all — 10k blocked threads exhaust the default
// thread limits long before the fd limit bites.
//
// Usage: perf_c10k [--smoke]   (smoke: tiny connection counts, CI lane)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "dm/tcp_remote.h"

namespace hedc {
namespace {

class EchoRmi : public dm::RmiHandler {
 public:
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override {
    return request;
  }
};

// Forked reactor server; lives until the parent closes the exit pipe.
struct ServerChild {
  pid_t pid = -1;
  int port = 0;
  int exit_fd = -1;  // closing this tells the child to shut down

  static ServerChild Spawn(int max_conns) {
    int port_pipe[2];
    int exit_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(exit_pipe) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    if (pid == 0) {
      ::close(port_pipe[0]);
      ::close(exit_pipe[1]);
      EchoRmi rmi;
      dm::TcpRmiServer::Options options;
      options.reactor.loops = 2;
      // Connections are intentionally idle most of the time; only a
      // genuinely dead one should be reaped.
      options.reactor.idle_timeout = 300 * kMicrosPerSecond;
      options.reactor.listen_backlog = max_conns;
      dm::TcpRmiServer server(&rmi, nullptr, options);
      if (!server.Start().ok()) ::_exit(2);
      int port = server.port();
      if (::write(port_pipe[1], &port, sizeof(port)) != sizeof(port)) {
        ::_exit(2);
      }
      ::close(port_pipe[1]);
      char byte;
      // Parks until the parent closes its end.
      while (::read(exit_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      server.Stop();
      ::_exit(0);
    }
    ::close(port_pipe[1]);
    ::close(exit_pipe[0]);
    ServerChild child;
    child.pid = pid;
    child.exit_fd = exit_pipe[1];
    if (::read(port_pipe[0], &child.port, sizeof(child.port)) !=
        sizeof(child.port)) {
      std::fprintf(stderr, "server child failed to report a port\n");
      std::exit(1);
    }
    ::close(port_pipe[0]);
    return child;
  }

  void Shutdown() {
    if (exit_fd >= 0) {
      ::close(exit_fd);
      exit_fd = -1;
    }
    if (pid > 0) {
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }
};

struct Measurement {
  int connections = 0;
  int64_t calls = 0;
  double wall_seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Opens `num_conns` keep-alive connections, then makes `calls_per_conn`
// echo calls over each from `num_threads` workers, each worker owning a
// disjoint set of connections.
Measurement RunScale(int port, int num_conns, int calls_per_conn,
                     int num_threads) {
  std::vector<net::TcpSocket> conns;
  conns.reserve(num_conns);
  for (int i = 0; i < num_conns; ++i) {
    auto connected = net::TcpConnect("127.0.0.1", port);
    for (int retry = 0; !connected.ok() && retry < 5; ++retry) {
      // Backlog overflow under a connect storm: back off and retry.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      connected = net::TcpConnect("127.0.0.1", port);
    }
    if (!connected.ok()) {
      std::fprintf(stderr, "connect %d/%d failed: %s\n", i, num_conns,
                   connected.status().ToString().c_str());
      std::exit(1);
    }
    conns.push_back(std::move(connected).value());
    if (i % 500 == 499) {
      // Throttle the storm so the accept loop keeps pace.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // Warm every connection once (touches all 10k on the server loop).
  std::vector<uint8_t> payload(64, 0xAB);
  {
    std::atomic<int> next{0};
    std::vector<std::thread> warmers;
    for (int t = 0; t < num_threads; ++t) {
      warmers.emplace_back([&] {
        int i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) <
               num_conns) {
          net::SendFrame(conns[i], payload);
          net::RecvFrame(conns[i]);
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  // Measured phase: connection i belongs to thread i % num_threads alone,
  // which cycles calls_per_conn times over its own connections. One call
  // is in flight per connection and at most num_threads overall; no two
  // threads ever share a socket.
  const int64_t total_calls =
      static_cast<int64_t>(num_conns) * calls_per_conn;
  std::vector<std::vector<double>> latencies(num_threads);
  std::atomic<int64_t> failures{0};
  Micros start = SteadyNowUs();
  std::vector<std::thread> workers;
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double>& mine = latencies[t];
      mine.reserve(total_calls / num_threads + calls_per_conn);
      for (int round = 0; round < calls_per_conn; ++round) {
        for (int i = t; i < num_conns; i += num_threads) {
          Micros begin = SteadyNowUs();
          if (!net::SendFrame(conns[i], payload).ok() ||
              !net::RecvFrame(conns[i]).ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          mine.push_back(static_cast<double>(SteadyNowUs() - begin));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  Micros elapsed = SteadyNowUs() - start;

  if (failures.load() > 0) {
    std::fprintf(stderr, "%" PRId64 " calls failed at %d connections\n",
                 failures.load(), num_conns);
    std::exit(1);
  }
  std::vector<double> all;
  all.reserve(total_calls);
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());

  Measurement m;
  m.connections = num_conns;
  m.calls = total_calls;
  m.wall_seconds = static_cast<double>(elapsed) / kMicrosPerSecond;
  m.p50_us = bench::PercentileUs(all, 0.50);
  m.p99_us = bench::PercentileUs(all, 0.99);
  return m;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  // Wall-clock distortion at tiny scale makes smoke runs noisy; they
  // exist to keep the harness and its JSON schema honest, not to measure.
  std::vector<int> scales =
      smoke ? std::vector<int>{16, 64} : std::vector<int>{100, 1000, 10000};
  // Every scale runs the same total number of calls, so each row's p99
  // rests on the same sample population AND the same wall-clock exposure
  // to host noise (a 1000-call p99 is the 10th-worst sample — pure
  // scheduler luck — and a 5x-longer run catches 5x the noise bursts).
  const int64_t total_calls = smoke ? 512 : 40000;
  const int num_threads = 16;

  ServerChild server = ServerChild::Spawn(scales.back() + 64);
  std::printf("c10k transport bench (reactor server in pid %d, port %d)\n",
              static_cast<int>(server.pid), server.port);
  std::printf("%12s %10s %14s %10s %10s\n", "connections", "calls",
              "throughput/s", "p50_us", "p99_us");

  std::vector<bench::BenchRow> rows;
  double base_p99 = 0;
  for (int scale : scales) {
    int calls_per_conn =
        static_cast<int>(std::max<int64_t>(1, total_calls / scale));
    Measurement m = RunScale(server.port, scale, calls_per_conn,
                             num_threads);
    double throughput = static_cast<double>(m.calls) / m.wall_seconds;
    std::printf("%12d %10" PRId64 " %14.0f %10.0f %10.0f\n", m.connections,
                m.calls, throughput, m.p50_us, m.p99_us);
    if (base_p99 == 0) base_p99 = m.p99_us;
    bench::BenchRow row("c10k_conns_" + std::to_string(scale),
                        bench::Source::kMeasured);
    row.metrics = {{"connections", static_cast<double>(m.connections)},
                   {"calls", static_cast<double>(m.calls)},
                   {"throughput_per_sec", throughput},
                   {"p50_us", m.p50_us},
                   {"p99_us", m.p99_us}};
    rows.push_back(std::move(row));
  }
  server.Shutdown();

  double final_p99 = rows.back().metrics[4].second;
  if (base_p99 > 0) {
    std::printf("p99 flatness: %.0f connections at %.2fx the %d-connection "
                "p99 (target: <= 2x)\n",
                static_cast<double>(scales.back()), final_p99 / base_p99,
                scales.front());
  }
  if (!bench::WriteBenchJson("BENCH_c10k.json", "c10k", rows)) {
    std::fprintf(stderr, "failed to write BENCH_c10k.json\n");
    return 1;
  }
  std::printf("wrote BENCH_c10k.json\n");
  return 0;
}

}  // namespace
}  // namespace hedc

int main(int argc, char** argv) { return hedc::Main(argc, argv); }
