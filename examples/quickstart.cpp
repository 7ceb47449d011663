// Quickstart: stand up a minimal HEDC repository, load one raw data
// unit, browse it through the web tier, and run one analysis.
//
//   telemetry -> raw unit (FITS + hzip) -> data-load process
//   (event detection, HLEs, standard catalog, wavelet views)
//   -> web browsing -> PL analysis -> ANA tuple + image file.
#include <cstdio>
#include <memory>

#include "core/clock.h"
#include "dm/dm.h"
#include "dm/hedc_schema.h"
#include "dm/process_layer.h"
#include "pl/commit.h"
#include "pl/frontend.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "web/web_server.h"

using namespace hedc;

int main() {
  // --- resource tier: metadata DBMS + file archive + name mapping -------
  db::Database metadata_db;
  dm::CreateFullSchema(&metadata_db);

  archive::ArchiveManager archives;
  archives.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                    std::make_unique<archive::DiskArchive>());

  Config mapper_config;
  mapper_config.Set("root.filename", "/hedc");
  archive::NameMapper mapper(&metadata_db, mapper_config);
  mapper.Init();
  mapper.RegisterArchive(1, "disk", "raid1");

  // --- application logic tier: the DM ------------------------------------
  VirtualClock clock;
  dm::DataManager::Options dm_options;
  dm::DataManager data_manager("dm0", &metadata_db, &archives, &mapper,
                               &clock, dm_options);

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

  dm::ProcessLayer process(&data_manager, /*raw_archive_id=*/1);
  auto report = process.LoadRawUnit(import_session, unit.Pack());
  if (!report.ok()) {
    std::printf("load failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded unit %lld: %zu photons, %zu detected events\n",
              static_cast<long long>(report.value().unit_id),
              report.value().photons, report.value().hle_ids.size());

  // --- processing logic tier ---------------------------------------------
  auto registry = analysis::CreateStandardRegistry();
  pl::IdlServerManager manager("host0", {});
  manager.AddServer(std::make_unique<pl::IdlServer>(
      "idl0", registry.get(), &clock, pl::IdlServer::Options{}));
  pl::GlobalDirectory directory;
  directory.Register("host0", &manager, "local");
  pl::DurationPredictor predictor;
  pl::Frontend frontend(&directory, &predictor, &clock,
                        pl::MakeDmCommitter(&data_manager, import_session, 1),
                        pl::Frontend::Options{});

  // --- presentation tier ---------------------------------------------------
  web::WebServer web_server(&data_manager, &frontend);
  Status registered = web_server.RegisterStandardServlets();
  if (!registered.ok()) {
    std::printf("page templates: %s\n", registered.ToString().c_str());
    return 1;
  }

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
