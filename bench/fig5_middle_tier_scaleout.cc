// Figure 5: browse throughput versus number of middle-tier servers at 96
// clients. Paper: "the throughput rises from 3 requests for one node to
// 18 requests for five nodes. These 18 requests result in around 120 HEDC
// database queries, the peak performance of the database setup."
// Emits BENCH_fig5_middle_tier_scaleout.json; `--smoke` runs a short
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

  struct PaperPoint {
    int nodes;
    double paper_rps;  // endpoints from the text; interior read from the
                       // bar chart (approximate)
  };
  const PaperPoint kPaper[] = {{1, 3.0}, {2, 8.0}, {3, 12.0}, {4, 15.0},
                               {5, 18.0}};

  std::printf(
      "Figure 5: browse throughput vs middle-tier nodes (96 clients)\n");
  std::printf("%7s %14s %14s %14s %10s\n", "nodes", "paper[req/s]",
              "modeled", "db[q/s]", "db util");
  std::vector<BenchRow> rows;
  for (const PaperPoint& point : kPaper) {
    BrowseResult r = RunBrowse(96, point.nodes, sim_seconds);
    std::printf("%7d %14.1f %14.1f %14.0f %9.0f%%\n", point.nodes,
                point.paper_rps, r.throughput_rps, r.db_queries_per_sec,
                100 * r.db_utilization);
    rows.push_back(BenchRow{
        "nodes_" + std::to_string(point.nodes),
        Source::kModeled,
        {{"nodes", static_cast<double>(point.nodes)},
         {"paper_rps", point.paper_rps},
         {"throughput_per_sec", r.throughput_rps},
         {"db_utilization", r.db_utilization},
         {"p50_us", r.p50_response_sec * 1e6},
         {"p99_us", r.p99_response_sec * 1e6}}});
  }
  std::printf("\nshape checks: rises from ~3 req/s to the DBMS ceiling "
              "(~120 q/s = 17-18 req/s) by five nodes.\n");
  if (!hedc::bench::WriteBenchJson("BENCH_fig5_middle_tier_scaleout.json",
                                   "fig5_middle_tier_scaleout", rows)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  return 0;
}
