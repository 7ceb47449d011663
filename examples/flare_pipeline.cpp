// Flare pipeline: the workload HEDC's introduction motivates — continuous
// telemetry, automatic event detection on load, the standard analysis
// catalog computed for every flare, user catalogs, versioned
// recalibration with lineage.
#include <cstdio>
#include <memory>

#include "core/clock.h"
#include "node/node.h"
#include "rhessi/calibration.h"
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
  // Archive 2: the tape tier old units migrate to.
  node.archives()->Register(
      {2, archive::ArchiveType::kTape, "tape0", true},
      std::make_unique<archive::TapeArchive>(
          std::make_unique<archive::DiskArchive>(), &clock));
  node.mapper()->RegisterArchive(2, "tape", "tape0");

  dm::DataManager& data_manager = *node.dm();
  dm::ProcessLayer& process = *node.process();

  dm::UserProfile import_rights;
  import_rights.is_super = true;
  data_manager.users().CreateUser("import", "pw", import_rights);
  dm::Session session =
      data_manager.sessions()
          .GetOrCreate(
              data_manager.users().Authenticate("import", "pw").value(),
              "127.0.0.1", "ck", dm::SessionKind::kHle)
          .value();

  // --- one observation day, segmented into raw units --------------------
  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 4 * 3600;
  telemetry_options.flares_per_hour = 5;
  telemetry_options.grbs_per_hour = 1;
  telemetry_options.saa_per_hour = 0.5;
  telemetry_options.seed = 20020604;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(telemetry_options);
  std::printf("telemetry: %zu photons, %zu injected events\n",
              telemetry.photons.size(), telemetry.truth.size());

  std::vector<int64_t> unit_ids;
  size_t total_hles = 0;
  for (const rhessi::RawDataUnit& unit :
       rhessi::SegmentIntoUnits(telemetry.photons, 400000, 1)) {
    auto report = process.LoadRawUnit(session, unit.Pack());
    if (!report.ok()) {
      std::printf("  unit %lld failed: %s\n",
                  static_cast<long long>(unit.unit_id),
                  report.status().ToString().c_str());
      continue;
    }
    unit_ids.push_back(report.value().unit_id);
    total_hles += report.value().hle_ids.size();
    std::printf("  unit %lld: %zu photons -> %zu events\n",
                static_cast<long long>(report.value().unit_id),
                report.value().photons, report.value().hle_ids.size());
  }
  std::printf("catalog now holds %zu auto-detected events\n", total_hles);

  // --- the extended catalog: standard analyses for every flare -----------
  node.StartPl(session);
  pl::Frontend& frontend = *node.frontend();

  auto flares = data_manager.semantics().ListHles(session, 0, 1e12);
  int analyses = 0;
  std::vector<int64_t> pending;
  for (const dm::HleRecord& hle : flares.value()) {
    if (hle.event_type != "flare") continue;
    // Fetch the photons of the unit backing this event.
    auto packed = data_manager.io().ReadItemFile(hle.unit_id);
    if (!packed.ok()) continue;
    auto unit = rhessi::RawDataUnit::Unpack(packed.value());
    if (!unit.ok()) continue;
    for (const char* routine : {"lightcurve", "histogram", "spectrogram"}) {
      pl::ProcessingRequest request;
      request.hle_id = hle.hle_id;
      request.routine = routine;
      request.params.SetDouble("t_start", hle.t_start);
      request.params.SetDouble("t_end", hle.t_end);
      request.photons = unit.value().photons;
      auto id = frontend.Submit(std::move(request));
      if (id.ok()) pending.push_back(id.value());
    }
  }
  for (int64_t id : pending) {
    pl::RequestOutcome outcome = frontend.Wait(id);
    if (outcome.state == pl::RequestState::kCommitted) ++analyses;
  }
  std::printf("extended catalog: %d standard analyses committed\n",
              analyses);

  // --- user catalog of strong flares ---------------------------------------
  auto strong = data_manager.semantics().CreateCatalog(
      session, "strong_flares", "peak rate above 10x background", true);
  int strong_count = 0;
  for (const dm::HleRecord& hle : flares.value()) {
    if (hle.event_type == "flare" && hle.peak_rate > 800) {
      if (data_manager.semantics()
              .AddToCatalog(session, strong.value(), hle.hle_id)
              .ok()) {
        ++strong_count;
      }
    }
  }
  std::printf("user catalog 'strong_flares': %d events\n", strong_count);

  // --- recalibration: version 2 with 2%% gain correction -------------------
  rhessi::CalibrationTable calibrations;
  rhessi::CalibrationVersion v2;
  v2.version = 2;
  v2.description = "in-flight gain drift correction";
  for (int d = 0; d < rhessi::kNumCollimators; ++d) v2.gain[d] = 1.02;
  calibrations.Register(v2);
  size_t superseded = 0;
  for (int64_t unit_id : unit_ids) {
    auto recal = process.RecalibrateUnit(session, unit_id, calibrations, 2);
    if (recal.ok()) superseded += recal.value().hle_ids.size();
  }
  std::printf("recalibration to v2: %zu HLEs superseded (v1 retained, "
              "lineage recorded)\n",
              superseded);

  // --- archive old units to tape -------------------------------------------
  if (!unit_ids.empty()) {
    auto relocated = process.RelocateItems({unit_ids.front()}, 1, 2,
                                           "archived/2002");
    std::printf("relocated unit %lld to tape: %s\n",
                static_cast<long long>(unit_ids.front()),
                relocated.ok() ? "ok" : relocated.ToString().c_str());
    auto back = data_manager.io().ReadItemFile(unit_ids.front());
    std::printf("read back from tape: %s (%zu bytes)\n",
                back.ok() ? "ok" : back.status().ToString().c_str(),
                back.ok() ? back.value().size() : 0);
  }
  std::printf("flare pipeline complete.\n");
  return 0;
}
