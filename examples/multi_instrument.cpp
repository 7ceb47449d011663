// Multi-instrument repository: RHESSI photon data and Phoenix-2 radio
// spectrograms side by side — the "moving target" absorbed. A correlated
// X-ray flare and radio burst are injected; both instruments' events end
// up in the same HLE table and can be found with one predefined query,
// then cross-checked through the explore tool and the status page.
#include <cstdio>
#include <memory>

#include "core/clock.h"
#include "dm/predefined_queries.h"
#include "node/node.h"
#include "rhessi/phoenix.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

using namespace hedc;

int main() {
  VirtualClock clock;
  Node node("dm0", NodeOptions{}, &clock);
  if (Status booted = node.Boot(); !booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  db::Database& metadata_db = *node.db();
  dm::DataManager& data_manager = *node.dm();
  dm::ProcessLayer& process = *node.process();

  dm::UserProfile admin;
  admin.is_super = true;
  data_manager.users().CreateUser("ops", "pw", admin);
  dm::Session session =
      data_manager.sessions()
          .GetOrCreate(data_manager.users().Authenticate("ops", "pw").value(),
                       "127.0.0.1", "ck", dm::SessionKind::kHle)
          .value();

  // --- instrument 1: RHESSI X-ray telemetry -----------------------------
  rhessi::TelemetryOptions xray;
  xray.duration_sec = 1800;
  xray.flares_per_hour = 8;
  xray.saa_per_hour = 0;
  xray.seed = 11;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(xray);
  rhessi::RawDataUnit unit;
  unit.unit_id = 1;
  unit.t_start = 0;
  unit.t_stop = xray.duration_sec;
  unit.photons = telemetry.photons;
  auto xray_report = process.LoadRawUnit(session, unit.Pack());
  std::printf("RHESSI: %zu X-ray events detected\n",
              xray_report.ok() ? xray_report.value().hle_ids.size() : 0);

  // --- instrument 2: Phoenix-2 radio spectrograms -------------------------
  rhessi::PhoenixOptions radio;
  radio.duration_sec = 1800;
  radio.num_bursts = 3;
  radio.seed = 7;
  rhessi::PhoenixSpectrogram spectrum =
      rhessi::GeneratePhoenixSpectrogram(radio);
  spectrum.spectrum_id = 1;
  auto phoenix_report = process.LoadPhoenixSpectrogram(session, spectrum);
  std::printf("Phoenix-2: spectrum %lld loaded (%s)\n",
              phoenix_report.ok()
                  ? static_cast<long long>(phoenix_report.value())
                  : -1,
              phoenix_report.ok() ? "ok"
                                  : phoenix_report.status().ToString().c_str());

  // Both instruments share one event table.
  auto mix = metadata_db.Execute(
      "SELECT event_type, COUNT(*) FROM hle GROUP BY event_type");
  std::printf("event mix:\n");
  for (const db::Row& row : mix.value().rows) {
    std::printf("  %-12s %lld\n", row[0].AsText().c_str(),
                static_cast<long long>(row[1].AsInt()));
  }

  // --- one predefined query across instruments ---------------------------
  dm::PredefinedQueryService queries(&metadata_db);
  queries.Register("events_in_window",
                   "all events (any instrument) in a time window",
                   "SELECT hle_id, event_type, t_start, t_end FROM hle "
                   "WHERE t_start >= ? AND t_start <= ? ORDER BY t_start");
  auto correlated = queries.Run(session, "events_in_window",
                                {db::Value::Real(0),
                                 db::Value::Real(xray.duration_sec)});
  std::printf("correlation query: %zu events across both instruments\n",
              correlated.ok() ? correlated.value().num_rows() : 0);
  size_t shown = 0;
  for (size_t i = 0; correlated.ok() && i < correlated.value().num_rows() &&
                     shown < 6;
       ++i, ++shown) {
    std::printf("  t=%7.1f s  %-12s (HLE %lld)\n",
                correlated.value().Get(i, "t_start").AsReal(),
                correlated.value().Get(i, "event_type").AsText().c_str(),
                static_cast<long long>(
                    correlated.value().Get(i, "hle_id").AsInt()));
  }

  // --- web views over the merged repository -------------------------------
  web::WebServer& web_server = *node.web();
  web::HttpResponse login = web_server.Dispatch(
      web::MakeRequest("/login?user=ops&password=pw"));
  std::string cookie = login.set_cookies["hedc_session"];
  web::HttpResponse explore = web_server.Dispatch(
      web::MakeRequest("/explore?bins=12", "127.0.0.1", cookie));
  std::printf("explore page: HTTP %d (%zu bytes)\n", explore.status_code,
              explore.body.size());
  web::HttpResponse status = web_server.Dispatch(
      web::MakeRequest("/status", "127.0.0.1", cookie));
  std::printf("status page:  HTTP %d (%zu bytes)\n", status.status_code,
              status.body.size());
  std::printf("multi-instrument scenario complete.\n");
  return 0;
}
