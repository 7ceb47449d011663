// Shared full-stack fixture: database + schema + archives + name mapping
// + DM + process layer + PL + web server, loaded with synthetic RHESSI
// telemetry. Used by the web/client/integration tests.
#ifndef HEDC_TESTS_HEDC_FIXTURE_H_
#define HEDC_TESTS_HEDC_FIXTURE_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "core/clock.h"
#include "dm/dm.h"
#include "dm/hedc_schema.h"
#include "dm/process_layer.h"
#include "pl/commit.h"
#include "pl/frontend.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"
#include "web/web_server.h"

namespace hedc::testing {

class HedcStack {
 public:
  explicit HedcStack(uint64_t telemetry_seed = 5,
                     double telemetry_duration = 1200,
                     size_t photons_per_unit = 200000) {
    dm::CreateFullSchema(&db);
    archives.Register({1, archive::ArchiveType::kDisk, "raid1", true},
                      std::make_unique<archive::DiskArchive>());
    Config mapper_config;
    mapper_config.Set("root.filename", "/hedc");
    mapper = std::make_unique<archive::NameMapper>(&db, mapper_config);
    mapper->Init();
    mapper->RegisterArchive(1, "disk", "raid1");

    data_manager = std::make_unique<dm::DataManager>(
        "dm0", &db, &archives, mapper.get(), &clock,
        dm::DataManager::Options{});
    process = std::make_unique<dm::ProcessLayer>(data_manager.get(), 1);

    // Users.
    dm::UserProfile analyst;
    analyst.can_download = analyst.can_analyze = analyst.can_upload = true;
    data_manager->users().CreateUser("alice", "pw-a", analyst);
    data_manager->users().CreateUser("bob", "pw-b", dm::UserProfile{});
    dm::UserProfile import_user;
    import_user.is_super = true;
    data_manager->users().CreateUser("import", "pw-i", import_user);
    import_session = Login("import", "pw-i", "127.0.0.1");

    // Telemetry -> raw units -> loaded into the repository.
    rhessi::TelemetryOptions telemetry_options;
    telemetry_options.duration_sec = telemetry_duration;
    telemetry_options.flares_per_hour = 9;
    telemetry_options.saa_per_hour = 0;
    telemetry_options.seed = telemetry_seed;
    telemetry = rhessi::GenerateTelemetry(telemetry_options);
    for (const rhessi::RawDataUnit& unit :
         rhessi::SegmentIntoUnits(telemetry.photons, photons_per_unit, 1)) {
      auto report = process->LoadRawUnit(import_session, unit.Pack());
      if (report.ok()) {
        for (int64_t hle : report.value().hle_ids) hle_ids.push_back(hle);
      }
    }

    // PL: one host with two interpreters running real routines.
    registry = analysis::CreateStandardRegistry();
    manager = std::make_unique<pl::IdlServerManager>(
        "host0", pl::IdlServerManager::Options{});
    manager->AddServer(std::make_unique<pl::IdlServer>(
        "idl0", registry.get(), &clock, pl::IdlServer::Options{}));
    manager->AddServer(std::make_unique<pl::IdlServer>(
        "idl1", registry.get(), &clock, pl::IdlServer::Options{}));
    directory.Register("host0", manager.get(), "local");
    predictor = std::make_unique<pl::DurationPredictor>();

    // Derived-product cache: persisted through the DM, invalidated by
    // the recalibration/purge workflows.
    product_cache = std::make_unique<pl::ProductCache>(
        data_manager.get(), pl::ProductCache::Options{});
    product_cache->LoadFromDm();
    process->SetDerivedProductInvalidator([this](int64_t unit_id) {
      product_cache->InvalidateUnit(unit_id);
    });
    process->SetAnaPurgeListener([this](int64_t ana_id) {
      product_cache->InvalidateAna(ana_id);
    });

    // Commits are serialized: db::Database holds one transaction at a
    // time, so two dispatchers committing at once would fail CreateAna's
    // Begin with "transaction already open".
    frontend = std::make_unique<pl::Frontend>(
        &directory, predictor.get(), &clock,
        [inner = pl::MakeDmCommitter(data_manager.get(), import_session, 1),
         mu = std::make_shared<std::mutex>()](
            const pl::ProcessingRequest& request,
            const analysis::AnalysisProduct& product) {
          std::lock_guard<std::mutex> lock(*mu);
          return inner(request, product);
        },
        pl::Frontend::Options{});
    frontend->set_product_cache(product_cache.get());

    web_server = std::make_unique<web::WebServer>(data_manager.get(),
                                                  frontend.get());
    Status registered = web_server->RegisterStandardServlets();
    if (!registered.ok()) {
      std::fprintf(stderr, "page templates: %s\n",
                   registered.ToString().c_str());
      std::abort();
    }
  }

  dm::Session Login(const std::string& user, const std::string& password,
                    const std::string& ip) {
    dm::UserProfile profile =
        data_manager->users().Authenticate(user, password).value();
    return data_manager->sessions()
        .GetOrCreate(profile, ip, "ck-" + user, dm::SessionKind::kHle)
        .value();
  }

  VirtualClock clock;
  db::Database db;
  archive::ArchiveManager archives;
  std::unique_ptr<archive::NameMapper> mapper;
  std::unique_ptr<dm::DataManager> data_manager;
  std::unique_ptr<dm::ProcessLayer> process;
  dm::Session import_session;
  rhessi::Telemetry telemetry;
  std::vector<int64_t> hle_ids;
  std::unique_ptr<analysis::RoutineRegistry> registry;
  std::unique_ptr<pl::IdlServerManager> manager;
  pl::GlobalDirectory directory;
  std::unique_ptr<pl::DurationPredictor> predictor;
  std::unique_ptr<pl::ProductCache> product_cache;  // before frontend
  std::unique_ptr<pl::Frontend> frontend;
  std::unique_ptr<web::WebServer> web_server;
};

}  // namespace hedc::testing

#endif  // HEDC_TESTS_HEDC_FIXTURE_H_
