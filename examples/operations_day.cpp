// A day in the life of the HEDC operator: the "moving target" scenarios
// the paper's design choices exist for.
//
//  1. a disk is replaced -> remount via the location tables, no downtime;
//  2. cold data migrates to tape -> relocation process with compensation;
//  3. an archive goes offline -> reads degrade gracefully (kUnavailable);
//  4. a new analysis routine is deployed -> registered without touching
//     any other tier;
//  5. the schema evolves -> a new domain table appears next to the
//     generic part;
//  6. operational logs record everything.
#include <cstdio>
#include <memory>

#include "analysis/routine.h"
#include "core/clock.h"
#include "node/node.h"
#include "rhessi/raw_unit.h"
#include "rhessi/telemetry.h"

using namespace hedc;

namespace {

// 4. A user-contributed routine: mean photon energy over time windows.
class MeanEnergyRoutine : public analysis::AnalysisRoutine {
 public:
  std::string name() const override { return "mean_energy"; }

  Result<analysis::AnalysisProduct> Run(
      const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params) const override {
    double bin = params.GetDouble("bin_sec", 10.0);
    analysis::AnalysisProduct product;
    product.routine = name();
    analysis::Series series;
    if (!photons.empty() && bin > 0) {
      double t0 = photons.front().time_sec;
      size_t bins =
          static_cast<size_t>((photons.back().time_sec - t0) / bin) + 1;
      std::vector<double> sums(bins, 0), counts(bins, 0);
      for (const rhessi::PhotonEvent& p : photons) {
        size_t b = static_cast<size_t>((p.time_sec - t0) / bin);
        if (b >= bins) b = bins - 1;
        sums[b] += p.energy_kev;
        counts[b] += 1;
      }
      for (size_t b = 0; b < bins; ++b) {
        series.x.push_back(t0 + bin * static_cast<double>(b));
        series.y.push_back(counts[b] > 0 ? sums[b] / counts[b] : 0);
      }
    }
    product.rendered = analysis::RenderSeries(series);
    product.series = std::move(series);
    product.log = "user-contributed mean_energy routine";
    return product;
  }

  double EstimateWorkUnits(size_t photons,
                           const analysis::AnalysisParams&) const override {
    return static_cast<double>(photons);
  }
};

}  // namespace

int main() {
  VirtualClock clock;
  Node node("dm0", NodeOptions{}, &clock);
  if (Status booted = node.Boot(); !booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }
  // Archive 2: the tape tier cold data migrates to.
  archive::ArchiveManager& archives = *node.archives();
  archives.Register(
      {2, archive::ArchiveType::kTape, "tape0", true},
      std::make_unique<archive::TapeArchive>(
          std::make_unique<archive::DiskArchive>(), &clock));
  archive::NameMapper& mapper = *node.mapper();
  mapper.RegisterArchive(2, "tape", "tape0");
  db::Database& metadata_db = *node.db();
  dm::DataManager& data_manager = *node.dm();
  dm::ProcessLayer& process = *node.process();

  dm::UserProfile admin;
  admin.is_super = true;
  data_manager.users().CreateUser("ops", "pw", admin);
  dm::Session session =
      data_manager.sessions()
          .GetOrCreate(data_manager.users().Authenticate("ops", "pw").value(),
                       "127.0.0.1", "ck", dm::SessionKind::kCatalog)
          .value();

  // Load two units to operate on.
  rhessi::TelemetryOptions telemetry_options;
  telemetry_options.duration_sec = 1200;
  telemetry_options.seed = 99;
  rhessi::Telemetry telemetry = rhessi::GenerateTelemetry(telemetry_options);
  std::vector<int64_t> unit_ids;
  for (const rhessi::RawDataUnit& unit :
       rhessi::SegmentIntoUnits(telemetry.photons, 60000, 1)) {
    auto report = process.LoadRawUnit(session, unit.Pack());
    if (report.ok()) unit_ids.push_back(report.value().unit_id);
  }
  std::printf("loaded %zu raw units\n", unit_ids.size());

  // 1. Disk replacement: raid1 becomes raid2 — one UPDATE on the archive
  //    tuple; no data tuples touched, reads keep working.
  mapper.Remount(1, "raid2");
  auto read_after_remount = data_manager.io().ReadItemFile(unit_ids[0]);
  std::printf("after remount to raid2: read unit %lld -> %s\n",
              static_cast<long long>(unit_ids[0]),
              read_after_remount.ok() ? "ok"
                                      : read_after_remount.status()
                                            .ToString()
                                            .c_str());

  // 2. Cold migration to tape with the relocation process.
  Status relocated = process.RelocateItems({unit_ids[0]}, 1, 2, "cold");
  std::printf("relocation to tape: %s\n",
              relocated.ok() ? "ok" : relocated.ToString().c_str());
  auto tape_read = data_manager.io().ReadItemFile(unit_ids[0]);
  std::printf("read from tape (mount+seek charged): %s, clock at %.1f s\n",
              tape_read.ok() ? "ok" : tape_read.status().ToString().c_str(),
              static_cast<double>(clock.Now()) / kMicrosPerSecond);

  // 3. Archive failure: take the tape offline; reads fail cleanly.
  archives.SetOnline(2, false);
  auto offline_read = data_manager.io().ReadItemFile(unit_ids[0]);
  std::printf("tape offline: read -> %s\n",
              offline_read.status().ToString().c_str());
  archives.SetOnline(2, true);

  // 4. Deploy a new user-contributed routine; nothing else changes.
  auto registry = analysis::CreateStandardRegistry();
  registry->Register(std::make_unique<MeanEnergyRoutine>());
  auto packed = data_manager.io().ReadItemFile(unit_ids[1]);
  auto unit = rhessi::RawDataUnit::Unpack(packed.value());
  analysis::AnalysisParams params;
  params.SetDouble("bin_sec", 30);
  auto product =
      registry->Get("mean_energy")->Run(unit.value().photons, params);
  std::printf("new routine 'mean_energy' produced %zu points\n",
              product.ok() ? product.value().series->y.size() : 0);

  // 5. Schema evolution: a new domain table (e.g. for a second
  //    instrument) appears next to the untouched generic part.
  auto evolve = metadata_db.Execute(
      "CREATE TABLE phoenix_spectra (spec_id INT PRIMARY KEY, "
      "hle_id INT, freq_lo REAL, freq_hi REAL, file_item INT)");
  std::printf("schema evolution (phoenix_spectra): %s; tables now: %zu\n",
              evolve.ok() ? "ok" : evolve.status().ToString().c_str(),
              metadata_db.TableNames().size());

  // 6. Operational log.
  data_manager.LogOperational("ops", "maintenance window closed");
  auto logs = metadata_db.Execute(
      "SELECT COUNT(*) FROM op_logs");
  std::printf("operational log entries: %lld\n",
              static_cast<long long>(logs.value().rows[0][0].AsInt()));
  std::printf("operations day complete.\n");
  return 0;
}
