// Quickstart: stand up a minimal HEDC repository, load one raw data
// unit, browse it through the web tier, and run one analysis.
//
//   telemetry -> raw unit (FITS-lite) -> data-load process
//   (event detection, HLEs, standard catalog, wavelet views)
//   -> web browsing -> PL analysis -> ANA tuple + image file.
#include <cstdio>

#include "core/clock.h"
#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

using namespace hedc;

int main() {
  // --- one node: metadata DBMS + file archive + name mapping, the DM,
  // the PL front end and the web tier -------------------------------------
  VirtualClock clock;
  Node node("dm0", NodeOptions{}, &clock);
  if (Status booted = node.Boot(); !booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  dm::DataManager& data_manager = *node.dm();

  dm::UserProfile scientist;
  scientist.can_download = scientist.can_analyze = scientist.can_upload =
      true;
  data_manager.users().CreateUser("alice", "secret", scientist);
  dm::UserProfile import_rights;
  import_rights.is_super = true;
  data_manager.users().CreateUser("import", "import-pw", import_rights);

  dm::UserProfile import_profile =
      data_manager.users().Authenticate("import", "import-pw").value();
  dm::Session import_session =
      data_manager.sessions()
          .GetOrCreate(import_profile, "127.0.0.1", "import-ck",
                       dm::SessionKind::kHle)
          .value();

  // --- load one raw data unit -------------------------------------------
  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 900;
  telemetry_options.flares_per_hour = 12;
  telemetry_options.saa_per_hour = 0;
  telemetry_options.seed = 11;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(telemetry_options);
  rhessi::RawDataUnit unit;
  unit.unit_id = 1;
  unit.t_start = 0;
  unit.t_stop = telemetry_options.duration_sec;
  unit.photons = telemetry.photons;

  auto report = node.process()->LoadRawUnit(import_session, unit.Pack());
  if (!report.ok()) {
    std::printf("load failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded unit %lld: %zu photons, %zu detected events\n",
              static_cast<long long>(report.value().unit_id),
              report.value().photons, report.value().hle_ids.size());

  // --- processing logic tier: two interpreters, commits as "import" ----
  node.StartPl(import_session);

  // --- presentation tier ---------------------------------------------------
  web::WebServer& web_server = *node.web();
  web::HttpResponse login = web_server.Dispatch(
      web::MakeRequest("/login?user=alice&password=secret"));
  std::string cookie = login.set_cookies["hedc_session"];
  std::printf("alice logged in, cookie %s\n", cookie.c_str());

  web::HttpResponse catalog = web_server.Dispatch(
      web::MakeRequest("/catalog?name=standard", "10.0.0.1", cookie));
  std::printf("catalog page: HTTP %d, %zu bytes\n", catalog.status_code,
              catalog.body.size());

  if (!report.value().hle_ids.empty()) {
    long long hle = static_cast<long long>(report.value().hle_ids[0]);
    web::HttpResponse hle_page = web_server.Dispatch(web::MakeRequest(
        "/hle?id=" + std::to_string(hle), "10.0.0.1", cookie));
    std::printf("HLE %lld page: HTTP %d, %zu bytes\n", hle,
                hle_page.status_code, hle_page.body.size());

    web::HttpResponse analysis_page = web_server.Dispatch(web::MakeRequest(
        "/analyze?hle_id=" + std::to_string(hle) +
            "&routine=lightcurve&bin_sec=2",
        "10.0.0.1", cookie));
    std::printf("analysis submitted: HTTP %d\n%s\n",
                analysis_page.status_code,
                analysis_page.body.substr(0, 400).c_str());
  }
  std::printf("quickstart complete.\n");
  return 0;
}
