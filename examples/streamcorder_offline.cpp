// StreamCorder scenario: a scientist mirrors events onto the fat client,
// explores them progressively (wavelet approximations), analyzes locally
// on cached data, uploads a result back to HEDC, and runs a synoptic
// search across remote archives — including one that is offline.
#include <cstdio>
#include <memory>

#include "client/streamcorder.h"
#include "client/synoptic.h"
#include "core/clock.h"
#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

using namespace hedc;

int main() {
  // --- server side -------------------------------------------------------
  VirtualClock clock;
  Node node("hedc", NodeOptions{}, &clock);
  if (Status booted = node.Boot(); !booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  dm::DataManager& server = *node.dm();
  dm::UserProfile scientist;
  scientist.can_download = scientist.can_analyze = scientist.can_upload =
      true;
  scientist.is_super = true;
  server.users().CreateUser("eva", "pw", scientist);
  dm::Session session =
      server.sessions()
          .GetOrCreate(server.users().Authenticate("eva", "pw").value(),
                       "192.168.1.7", "ck", dm::SessionKind::kAnalysis)
          .value();

  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 1800;
  telemetry_options.flares_per_hour = 8;
  telemetry_options.seed = 7;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(telemetry_options);
  rhessi::RawDataUnit unit;
  unit.unit_id = 1;
  unit.t_start = 0;
  unit.t_stop = telemetry_options.duration_sec;
  unit.photons = telemetry.photons;
  auto report = node.process()->LoadRawUnit(session, unit.Pack());
  if (!report.ok() || report.value().hle_ids.empty()) {
    std::printf("server load failed\n");
    return 1;
  }
  std::printf("server holds unit 1 with %zu events\n",
              report.value().hle_ids.size());

  // --- the fat client ------------------------------------------------------
  client::StreamCorder::Options options;
  options.cache_version = 2;  // local-DB cache
  client::StreamCorder corder(&server, session, options);

  int64_t hle = report.value().hle_ids[0];
  corder.MirrorHle(hle);
  auto local = corder.LocalHle(hle);
  std::printf("mirrored HLE %lld locally (type %s)\n",
              static_cast<long long>(hle),
              local.ok() ? local.value().event_type.c_str() : "?");

  // Progressive exploration: coarse first, refine interactively.
  for (double fraction : {0.02, 0.1, 1.0}) {
    auto view = corder.FetchViewApproximation(1, fraction);
    if (!view.ok()) continue;
    double total = 0;
    for (double v : view.value()) total += v;
    std::printf("  view @ %4.0f%% of coefficients: %zu bins, ~%.0f counts, "
                "server fetches so far: %lld\n",
                fraction * 100, view.value().size(), total,
                static_cast<long long>(corder.server_fetches()));
  }

  // Local analysis on cached data, then upload.
  analysis::AnalysisParams params;
  params.SetInt("bins", 32);
  params.SetDouble("t_start", local.value().t_start);
  params.SetDouble("t_end", local.value().t_end);
  auto product = corder.AnalyzeLocally(1, "histogram", params);
  if (product.ok()) {
    auto ana_id = corder.UploadResult(hle, product.value(), params);
    std::printf("local histogram uploaded as ANA %lld (%zu image bytes)\n",
                ana_id.ok() ? static_cast<long long>(ana_id.value()) : -1,
                product.value().rendered.size());
  }
  std::printf("cache: %lld hits, %lld misses, %llu bytes\n",
              static_cast<long long>(corder.cache().hits()),
              static_cast<long long>(corder.cache().misses()),
              static_cast<unsigned long long>(corder.cache().bytes_cached()));

  // --- synoptic search over remote archives --------------------------------
  archive::DiskArchive soho_backing;
  archive::DiskArchive gbo_backing;
  for (double t : {120.0, 600.0, 1500.0}) {
    soho_backing.Write(client::SynopticSearch::EntryPath(t, "soho-eit"),
                       {1, 2, 3});
  }
  gbo_backing.Write(client::SynopticSearch::EntryPath(640.0, "phoenix2"),
                    {1});
  auto offline_inner = std::make_unique<archive::DiskArchive>();
  offline_inner->Write(client::SynopticSearch::EntryPath(650.0, "nobeyama"),
                       {1});
  archive::RemoteArchive offline(std::move(offline_inner), &clock);
  offline.set_online(false);

  client::SynopticSearch synoptic;
  synoptic.AddRemoteArchive("soho", &soho_backing);
  synoptic.AddRemoteArchive("phoenix", &gbo_backing);
  synoptic.AddRemoteArchive("nobeyama", &offline);
  client::SynopticResult hits =
      synoptic.Search(local.value().t_start - 120, local.value().t_end + 120);
  std::printf("synoptic search around the event: %zu hits, %zu archives "
              "unavailable\n",
              hits.hits.size(), hits.unavailable.size());
  for (const client::SynopticHit& hit : hits.hits) {
    std::printf("  t=%.0f s  %s (%s)\n", hit.observation_time,
                hit.instrument.c_str(), hit.archive_name.c_str());
  }
  std::printf("streamcorder scenario complete.\n");
  return 0;
}
