// Table 2: characteristics of the imaging test — 100 requests, 50 MB
// input, 5.5 MB of output GIFs, 300 queries, 200 edits.
//
// Two parts: (i) the workload model's interaction counts, (ii) a real
// mini-run through the actual DM + PL stack (scaled-down photon lists)
// validating that each committed analysis produces a bounded number of
// metadata interactions and one rendered image.
#include <cstdio>

#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "testbed/processing_model.h"

using namespace hedc;

int main() {
  std::printf("Table 2: imaging test characteristics\n\n");
  std::printf("%-12s %10s %10s\n", "metric", "paper", "model");
  testbed::ProcessingRow row =
      testbed::RunProcessing(testbed::ImagingProfile(), {1, 0, false});
  testbed::AnalysisProfile profile = testbed::ImagingProfile();
  std::printf("%-12s %10d %10d\n", "requests", 100, profile.num_requests);
  std::printf("%-12s %10.0f %10.0f\n", "input[MB]", 50.0,
              profile.total_input_mb);
  std::printf("%-12s %10.1f %10.1f\n", "output[MB]", 5.5,
              profile.output_kb_per_request * profile.num_requests / 1024.0);
  std::printf("%-12s %10d %10lld\n", "queries", 300,
              static_cast<long long>(row.total_queries));
  std::printf("%-12s %10d %10lld\n", "edits", 200,
              static_cast<long long>(row.total_edits));

  // --- real mini-run -----------------------------------------------------
  std::printf("\nreal stack mini-run (10 imaging analyses, scaled "
              "photons):\n");
  VirtualClock clock;
  Node node("dm0", NodeOptions{}, &clock);
  if (Status booted = node.Boot(); !booted.ok()) {
    std::printf("  boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  db::Database& metadata_db = *node.db();
  dm::DataManager& data_manager = *node.dm();
  dm::UserProfile super_user;
  super_user.is_super = true;
  data_manager.users().CreateUser("bench", "pw", super_user);
  dm::Session session =
      data_manager.sessions()
          .GetOrCreate(
              data_manager.users().Authenticate("bench", "pw").value(),
              "127.0.0.1", "ck", dm::SessionKind::kAnalysis)
          .value();
  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 600;
  telemetry_options.flares_per_hour = 12;
  telemetry_options.saa_per_hour = 0;
  telemetry_options.seed = 11;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(telemetry_options);
  rhessi::RawDataUnit unit;
  unit.unit_id = 1;
  unit.t_start = 0;
  unit.t_stop = telemetry_options.duration_sec;
  unit.photons = telemetry.photons;
  auto report = node.process()->LoadRawUnit(session, unit.Pack());
  if (!report.ok() || report.value().hle_ids.empty()) {
    std::printf("  (load produced no events; skipping real run)\n");
    return 0;
  }

  node.StartPl(session);
  pl::Frontend& frontend = *node.frontend();

  int64_t hle = report.value().hle_ids[0];
  int64_t q0 = metadata_db.stats().queries.load();
  int64_t u0 = metadata_db.stats().updates.load();
  size_t image_bytes = 0;
  const int kRuns = 10;
  for (int i = 0; i < kRuns; ++i) {
    pl::ProcessingRequest request;
    request.hle_id = hle;
    request.routine = "imaging";
    request.params.SetInt("pixels", 32);
    request.params.SetDouble("t_start", 0);
    request.params.SetDouble("t_end", 30 + i);  // distinct parameters
    // Scale: use a slice of photons so the run stays fast.
    request.photons.assign(telemetry.photons.begin(),
                           telemetry.photons.begin() +
                               std::min<size_t>(telemetry.photons.size(),
                                                4000));
    auto id = frontend.Submit(std::move(request));
    if (!id.ok()) continue;
    pl::RequestOutcome outcome = frontend.Wait(id.value());
    image_bytes += outcome.product.rendered.size();
  }
  int64_t queries = metadata_db.stats().queries.load() - q0;
  int64_t updates = metadata_db.stats().updates.load() - u0;
  std::printf("  metadata queries per analysis: %.1f (paper model: 3)\n",
              static_cast<double>(queries) / kRuns);
  std::printf("  metadata edits per analysis:   %.1f (paper model: 2)\n",
              static_cast<double>(updates) / kRuns);
  std::printf("  rendered image bytes per analysis: %zu\n",
              image_bytes / kRuns);
  return 0;
}
