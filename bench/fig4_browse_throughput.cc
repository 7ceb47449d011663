// Figure 4: browse throughput versus number of clients, single middle-
// tier server. Paper: throughput peaks at ~16-17 req/s with 16 clients
// (the DBMS at its ~120 queries/s ceiling) and degrades to ~3 req/s at 96
// clients due to application-logic load.
// Emits BENCH_fig4_browse_throughput.json; `--smoke` runs a short
// simulation for the bench-smoke ctest label.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "testbed/browse_model.h"

int main(int argc, char** argv) {
  using hedc::bench::BenchRow;
  using hedc::bench::Source;
  using hedc::testbed::BrowseResult;
  using hedc::testbed::RunBrowse;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  double sim_seconds = smoke ? 60 : 600;

  // Paper curve read from Figure 4 (approximate, the endpoints are given
  // in the text: "around 16" at the peak, "around 3" at 96 clients).
  struct PaperPoint {
    int clients;
    double paper_rps;
  };
  const PaperPoint kPaper[] = {{16, 16.5}, {32, 9.0},  {48, 6.5},
                               {64, 5.0},  {80, 4.0},  {96, 3.0}};

  std::printf("Figure 4: browse throughput vs clients (1 middle-tier "
              "server)\n");
  std::printf("%8s %14s %14s %14s %12s\n", "clients", "paper[req/s]",
              "modeled", "db[q/s]", "resp[s]");
  std::vector<BenchRow> rows;
  for (const PaperPoint& point : kPaper) {
    BrowseResult r = RunBrowse(point.clients, 1, sim_seconds);
    std::printf("%8d %14.1f %14.1f %14.0f %12.2f\n", point.clients,
                point.paper_rps, r.throughput_rps, r.db_queries_per_sec,
                r.mean_response_sec);
    rows.push_back(BenchRow{
        "clients_" + std::to_string(point.clients),
        Source::kModeled,
        {{"clients", static_cast<double>(point.clients)},
         {"paper_rps", point.paper_rps},
         {"throughput_per_sec", r.throughput_rps},
         {"db_queries_per_sec", r.db_queries_per_sec},
         {"p50_us", r.p50_response_sec * 1e6},
         {"p99_us", r.p99_response_sec * 1e6}}});
  }
  std::printf("\nshape checks: peak at 16 clients, monotone degradation, "
              "~3 req/s at 96.\n");
  if (!hedc::bench::WriteBenchJson("BENCH_fig4_browse_throughput.json",
                                   "fig4_browse_throughput", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
