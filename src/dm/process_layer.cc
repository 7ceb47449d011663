#include "dm/process_layer.h"

#include <set>

#include "core/strings.h"
#include "wavelet/codec.h"

namespace hedc::dm {

ProcessLayer::ProcessLayer(DataManager* dm, int64_t raw_archive_id)
    : dm_(dm), raw_archive_id_(raw_archive_id) {}

bool ProcessLayer::WriteViewFile(const rhessi::BinnedUnit& unit) {
  // One signal per aggregate: photon counts for COUNT-style browse
  // queries, summed keV for energy SUMs. Each is stored as a
  // prefix-decodable progressive stream, so any byte prefix of the HDU
  // serves a coarser resolution of the same view.
  if (unit.view_counts.empty()) return false;

  archive::FitsFile fits;
  fits.primary().SetCard("UNIT_ID", std::to_string(unit.unit_id),
                         "wavelet view of raw unit");
  fits.primary().SetCard("KIND", "wavelet-view", "");
  fits.primary().SetCard("CALVER", std::to_string(unit.calibration_version),
                         "calibration version the view derives from");
  fits.AddHdu("VIEW").data =
      wavelet::EncodeSignalProgressive(unit.view_counts);
  fits.AddHdu("VIEW_E").data =
      wavelet::EncodeSignalProgressive(unit.view_energies);
  std::vector<uint8_t> bytes = fits.Serialize();

  int64_t item_id = ViewItemId(unit.unit_id);
  Result<archive::ResolvedName> name =
      dm_->io().name_mapper()->Resolve(item_id, archive::NameType::kFilename);
  if (name.ok()) {
    // Rebuild (recalibration): overwrite in place, the location tuple
    // stays valid.
    archive::Archive* arch = dm_->io().archives()->Get(name.value().archive_id);
    return arch != nullptr && arch->Write(name.value().rel_path, bytes).ok();
  }
  return dm_->io()
      .WriteItemFile(item_id, raw_archive_id_, "views", bytes)
      .ok();
}

Result<int64_t> ProcessLayer::InsertRawUnitTuple(
    const rhessi::BinnedUnit& unit, size_t file_bytes) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      dm_->io().Update(
          "raw_units",
          "INSERT INTO raw_units VALUES (?, ?, ?, ?, ?, ?, 'FITS', ?, "
          "'online')",
          {db::Value::Int(unit.unit_id), db::Value::Real(unit.t_start),
           db::Value::Real(unit.t_stop),
           db::Value::Int(static_cast<int64_t>(unit.num_photons)),
           db::Value::Int(unit.calibration_version),
           db::Value::Int(static_cast<int64_t>(file_bytes)),
           db::Value::Real(static_cast<double>(dm_->clock()->Now()) /
                           kMicrosPerSecond)}));
  (void)r;
  return unit.unit_id;
}

Result<DataLoadReport> ProcessLayer::LoadRawUnit(
    const Session& import_session, const std::vector<uint8_t>& packed) {
  // Step 1: unpack & validate, binning the photons as they decode.
  HEDC_ASSIGN_OR_RETURN(rhessi::BinnedUnit unit,
                        rhessi::UnpackBinned(packed));
  if (unit.unit_id <= 0) {
    return Status::InvalidArgument("raw unit has no id");
  }

  DataLoadReport report;
  report.unit_id = unit.unit_id;
  report.photons = unit.num_photons;
  report.file_bytes = packed.size();

  // Compensation state.
  bool file_written = false;
  bool tuple_written = false;
  bool view_written = false;
  auto compensate = [&]() {
    if (view_written) {
      dm_->io().DeleteItemFile(ViewItemId(unit.unit_id));
    }
    if (file_written) {
      dm_->io().DeleteItemFile(unit.unit_id);
    }
    if (tuple_written) {
      dm_->io().Update("raw_units", "DELETE FROM raw_units WHERE unit_id = ?",
                       {db::Value::Int(unit.unit_id)});
    }
    dm_->LogOperational("ProcessLayer",
                        StrFormat("load of unit %lld compensated",
                                  static_cast<long long>(unit.unit_id)));
  };

  // Step 2: store file + tuple + locations.
  Status write = dm_->io().WriteItemFile(unit.unit_id, raw_archive_id_,
                                         "raw", packed);
  if (!write.ok()) {
    compensate();
    return write;
  }
  file_written = true;
  Result<int64_t> tuple = InsertRawUnitTuple(unit, packed.size());
  if (!tuple.ok()) {
    compensate();
    return tuple.status();
  }
  tuple_written = true;

  // Step 3: event detection.
  std::vector<rhessi::DetectedEvent> events =
      rhessi::DetectEventsFromBins(unit.detection);

  // Step 4: HLEs + standard catalog.
  Result<CatalogRecord> standard =
      dm_->semantics().GetCatalogByName(import_session, "standard");
  int64_t catalog_id;
  if (standard.ok()) {
    catalog_id = standard.value().catalog_id;
  } else {
    Result<int64_t> created = dm_->semantics().CreateCatalog(
        import_session, "standard", "auto-generated event catalog", true);
    if (!created.ok()) {
      compensate();
      return created.status();
    }
    catalog_id = created.value();
  }
  report.standard_catalog_id = catalog_id;

  for (const rhessi::DetectedEvent& event : events) {
    HleRecord hle;
    hle.is_public = true;
    hle.event_type = rhessi::EventKindName(event.kind);
    hle.t_start = event.t_start;
    hle.t_end = event.t_end;
    hle.e_min = rhessi::kMinEnergyKev;
    hle.e_max = rhessi::kMaxEnergyKev;
    hle.peak_rate = event.peak_rate;
    hle.peak_energy = event.peak_energy_kev;
    hle.photon_count = event.photon_count;
    hle.unit_id = unit.unit_id;
    hle.calibration_version = unit.calibration_version;
    hle.source = "auto-detect";
    Result<int64_t> hle_id = dm_->semantics().CreateHle(import_session, hle);
    if (!hle_id.ok()) {
      compensate();
      return hle_id.status();
    }
    Status member = dm_->semantics().AddToCatalog(import_session, catalog_id,
                                                  hle_id.value());
    if (!member.ok()) {
      compensate();
      return member;
    }
    dm_->semantics().RecordLineage(hle_id.value(), unit.unit_id,
                                   "event-detect", unit.calibration_version,
                                   "");
    report.hle_ids.push_back(hle_id.value());
  }

  // Step 5: wavelet-preprocessed progressive views (count + energy).
  view_written = WriteViewFile(unit);

  // Step 6: log.
  dm_->LogOperational(
      "ProcessLayer",
      StrFormat("loaded unit %lld: %zu photons, %zu events",
                static_cast<long long>(unit.unit_id), unit.num_photons,
                events.size()));
  return report;
}

Status ProcessLayer::RelocateItems(const std::vector<int64_t>& item_ids,
                                   int64_t from_archive, int64_t to_archive,
                                   const std::string& new_rel_path) {
  archive::Archive* src = dm_->io().archives()->Get(from_archive);
  archive::Archive* dst = dm_->io().archives()->Get(to_archive);
  if (src == nullptr || dst == nullptr) {
    return Status::Unavailable("relocation endpoints must be online");
  }
  struct Moved {
    int64_t item_id;
    std::string old_rel_path;  // resolved path relative to the archive
    std::string new_path;
  };
  std::vector<Moved> moved;
  auto compensate = [&]() {
    for (auto it = moved.rbegin(); it != moved.rend(); ++it) {
      // Restore the bytes at the source before dropping the copy, then
      // repoint the location tuple back.
      Result<std::vector<uint8_t>> data = dst->Read(it->new_path);
      if (data.ok()) {
        src->Write(it->old_rel_path, data.value());
      }
      dst->Delete(it->new_path);
      dm_->io().name_mapper()->MoveItem(
          it->item_id, archive::NameType::kFilename, from_archive,
          // strip the trailing "/<item_id>" to recover the stored prefix
          it->old_rel_path.substr(
              0, it->old_rel_path.rfind('/')));
    }
    dm_->LogOperational("ProcessLayer", "relocation compensated");
  };

  for (int64_t item_id : item_ids) {
    // Step 1: query + alter the location tuple last (after the copy), so
    // readers never see a dangling name.
    Result<archive::ResolvedName> name = dm_->io().name_mapper()->Resolve(
        item_id, archive::NameType::kFilename);
    if (!name.ok()) {
      compensate();
      return name.status();
    }
    Result<std::vector<uint8_t>> data = src->Read(name.value().rel_path);
    if (!data.ok()) {
      compensate();
      return data.status();
    }
    std::string new_path = new_rel_path + "/" + std::to_string(item_id);
    Status copy = dst->Write(new_path, data.value());
    if (!copy.ok()) {
      compensate();
      return copy;
    }
    Status repoint = dm_->io().name_mapper()->MoveItem(
        item_id, archive::NameType::kFilename, to_archive, new_rel_path);
    if (!repoint.ok()) {
      dst->Delete(new_path);
      compensate();
      return repoint;
    }
    src->Delete(name.value().rel_path);
    moved.push_back(Moved{item_id, name.value().rel_path, new_path});
  }
  dm_->LogOperational(
      "ProcessLayer",
      StrFormat("relocated %zu items from archive %lld to %lld",
                moved.size(), static_cast<long long>(from_archive),
                static_cast<long long>(to_archive)));
  return Status::Ok();
}

Result<DataLoadReport> ProcessLayer::RecalibrateUnit(
    const Session& session, int64_t unit_id,
    const rhessi::CalibrationTable& calibrations, int new_version) {
  // Fetch the current unit file.
  HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> packed,
                        dm_->io().ReadItemFile(unit_id));
  HEDC_ASSIGN_OR_RETURN(rhessi::RawDataUnit unit,
                        rhessi::RawDataUnit::Unpack(packed));
  HEDC_ASSIGN_OR_RETURN(
      rhessi::PhotonList recalibrated,
      calibrations.Recalibrate(unit.photons, unit.calibration_version,
                               new_version));
  rhessi::RawDataUnit new_unit = unit;
  new_unit.photons = std::move(recalibrated);
  int old_version = unit.calibration_version;
  new_unit.calibration_version = new_version;

  // Overwrite the file in place (same item id — the raw unit identity is
  // stable; version is tracked in the tuple + lineage).
  HEDC_ASSIGN_OR_RETURN(
      archive::ResolvedName name,
      dm_->io().name_mapper()->Resolve(unit_id,
                                       archive::NameType::kFilename));
  archive::Archive* arch = dm_->io().archives()->Get(name.archive_id);
  if (arch == nullptr) return Status::Unavailable("raw archive offline");
  std::vector<uint8_t> new_packed = new_unit.Pack();
  HEDC_RETURN_IF_ERROR(arch->Write(name.rel_path, new_packed));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet upd,
      dm_->io().Update(
          "raw_units",
          "UPDATE raw_units SET calibration_version = ?, file_bytes = ? "
          "WHERE unit_id = ?",
          {db::Value::Int(new_version),
           db::Value::Int(static_cast<int64_t>(new_packed.size())),
           db::Value::Int(unit_id)}));
  (void)upd;
  dm_->semantics().RecordLineage(
      unit_id, unit_id, "recalibrate", new_version,
      StrFormat("from_version=%d", old_version));
  // Version bump is durable: dependent derived products are now stale.
  if (unit_invalidator_) unit_invalidator_(unit_id);
  // Re-derive the progressive views from the recalibrated photons so a
  // post-invalidation prefix request rebuilds against fresh data.
  rhessi::BinnedUnit binned = rhessi::BinUnit(new_unit);
  WriteViewFile(binned);

  // Supersede HLEs derived from this unit: re-detect on the new photons.
  DataLoadReport report;
  report.unit_id = unit_id;
  report.photons = new_unit.photons.size();
  report.file_bytes = new_packed.size();

  QuerySpec affected("hle");
  affected.Where("unit_id", CondOp::kEq, db::Value::Int(unit_id))
      .Where("superseded_by", CondOp::kEq, db::Value::Int(0));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet old_hles, dm_->io().Query(affected));

  std::vector<rhessi::DetectedEvent> events =
      rhessi::DetectEventsFromBins(binned.detection);
  for (size_t i = 0; i < old_hles.num_rows(); ++i) {
    int64_t old_id = old_hles.Get(i, "hle_id").AsInt();
    // The re-detected event overlapping the old HLE becomes its successor.
    double old_start = old_hles.Get(i, "t_start").AsReal();
    double old_end = old_hles.Get(i, "t_end").AsReal();
    const rhessi::DetectedEvent* match = nullptr;
    for (const rhessi::DetectedEvent& e : events) {
      if (e.t_start < old_end && e.t_end > old_start) {
        match = &e;
        break;
      }
    }
    if (match == nullptr) continue;  // event vanished under recalibration
    HleRecord successor;
    successor.is_public = old_hles.Get(i, "is_public").AsBool();
    successor.event_type = rhessi::EventKindName(match->kind);
    successor.t_start = match->t_start;
    successor.t_end = match->t_end;
    successor.e_min = rhessi::kMinEnergyKev;
    successor.e_max = rhessi::kMaxEnergyKev;
    successor.peak_rate = match->peak_rate;
    successor.peak_energy = match->peak_energy_kev;
    successor.photon_count = match->photon_count;
    successor.unit_id = unit_id;
    successor.calibration_version = new_version;
    successor.source = "recalibration";
    Result<int64_t> new_id =
        dm_->semantics().SupersedeHle(session, old_id, successor);
    if (new_id.ok()) report.hle_ids.push_back(new_id.value());
  }
  dm_->LogOperational(
      "ProcessLayer",
      StrFormat("recalibrated unit %lld to version %d (%zu HLEs superseded)",
                static_cast<long long>(unit_id), new_version,
                report.hle_ids.size()));
  return report;
}

Result<int64_t> ProcessLayer::LoadPhoenixSpectrogram(
    const Session& session, const rhessi::PhoenixSpectrogram& spectrum) {
  // Domain-slice DDL on demand; the generic sections are untouched.
  db::Database* db = dm_->io().DatabaseFor("phoenix_spectra");
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet ddl,
      db->Execute("CREATE TABLE IF NOT EXISTS phoenix_spectra ("
                  "spectrum_id INT PRIMARY KEY, t_start REAL, t_end REAL, "
                  "freq_lo REAL, freq_hi REAL, time_bins INT, "
                  "freq_channels INT, file_bytes INT)"));
  (void)ddl;
  if (spectrum.spectrum_id <= 0) {
    return Status::InvalidArgument("spectrum needs a positive id");
  }

  std::vector<uint8_t> bytes = spectrum.ToFits().Serialize();
  HEDC_RETURN_IF_ERROR(dm_->io().WriteItemFile(
      PhoenixItemId(spectrum.spectrum_id), raw_archive_id_, "phoenix",
      bytes));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet ins,
      dm_->io().Update(
          "phoenix_spectra",
          "INSERT INTO phoenix_spectra VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
          {db::Value::Int(spectrum.spectrum_id),
           db::Value::Real(spectrum.t_start),
           db::Value::Real(spectrum.t_end),
           db::Value::Real(spectrum.freq_lo_mhz),
           db::Value::Real(spectrum.freq_hi_mhz),
           db::Value::Int(static_cast<int64_t>(spectrum.time_bins)),
           db::Value::Int(static_cast<int64_t>(spectrum.freq_channels)),
           db::Value::Int(static_cast<int64_t>(bytes.size()))}));
  (void)ins;

  // Radio bursts become HLEs in the "phoenix" part of the extended
  // catalog.
  Result<CatalogRecord> existing =
      dm_->semantics().GetCatalogByName(session, "phoenix");
  int64_t catalog_id;
  if (existing.ok()) {
    catalog_id = existing.value().catalog_id;
  } else {
    HEDC_ASSIGN_OR_RETURN(
        catalog_id,
        dm_->semantics().CreateCatalog(session, "phoenix",
                                       "Phoenix-2 radio events", true));
  }
  for (const rhessi::RadioBurst& burst :
       rhessi::DetectRadioBursts(spectrum)) {
    HleRecord hle;
    hle.is_public = true;
    hle.event_type = "radio_burst";
    hle.t_start = burst.t_start;
    hle.t_end = burst.t_end;
    hle.e_min = spectrum.freq_lo_mhz;  // frequency band, not keV
    hle.e_max = spectrum.freq_hi_mhz;
    hle.peak_rate = burst.peak_intensity;
    hle.unit_id = PhoenixItemId(spectrum.spectrum_id);
    hle.source = "phoenix-2";
    HEDC_ASSIGN_OR_RETURN(int64_t hle_id,
                          dm_->semantics().CreateHle(session, hle));
    HEDC_RETURN_IF_ERROR(
        dm_->semantics().AddToCatalog(session, catalog_id, hle_id));
    dm_->semantics().RecordLineage(hle_id,
                                   PhoenixItemId(spectrum.spectrum_id),
                                   "radio-burst-detect", 0, "");
  }
  dm_->LogOperational(
      "ProcessLayer",
      StrFormat("loaded phoenix spectrum %lld (%zu bytes)",
                static_cast<long long>(spectrum.spectrum_id),
                bytes.size()));
  return spectrum.spectrum_id;
}

Result<int64_t> ProcessLayer::PurgeStaleAnalyses(const Session& session,
                                                 double older_than_sec) {
  if (!session.profile.is_super) {
    return Status::PermissionDenied("purging requires a super account");
  }
  QuerySpec spec("ana");
  spec.Select("ana_id")
      .Where("created_time", CondOp::kLt, db::Value::Real(older_than_sec))
      .Where("is_public", CondOp::kEq, db::Value::Bool(false))
      .Where("superseded_by", CondOp::kEq, db::Value::Int(0));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, dm_->io().Query(spec));
  int64_t purged = 0;
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    int64_t ana_id = rs.Get(i, "ana_id").AsInt();
    // Files first (a tuple without a file is recoverable; the reverse
    // dangles).
    Status drop_file = dm_->io().DeleteItemFile(2000000000 + ana_id);
    if (!drop_file.ok() && !drop_file.IsNotFound()) return drop_file;
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet del,
        dm_->io().Update("ana", "DELETE FROM ana WHERE ana_id = ?",
                         {db::Value::Int(ana_id)}));
    (void)del;
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet lineage,
        dm_->io().Update("lineage", "DELETE FROM lineage WHERE item_id = ?",
                         {db::Value::Int(ana_id)}));
    (void)lineage;
    if (ana_purge_listener_) ana_purge_listener_(ana_id);
    ++purged;
  }
  dm_->LogOperational(
      "ProcessLayer",
      StrFormat("purged %lld stale private analyses",
                static_cast<long long>(purged)));
  return purged;
}

Result<int64_t> ProcessLayer::GenerateCatalog(const Session& session,
                                              const std::string& catalog_name,
                                              const std::string& event_type) {
  Result<CatalogRecord> existing =
      dm_->semantics().GetCatalogByName(session, catalog_name);
  int64_t catalog_id;
  if (existing.ok()) {
    catalog_id = existing.value().catalog_id;
  } else {
    HEDC_ASSIGN_OR_RETURN(
        catalog_id,
        dm_->semantics().CreateCatalog(
            session, catalog_name,
            "generated: event_type = " + event_type, false));
  }
  QuerySpec spec("hle");
  spec.Select("hle_id")
      .Where("event_type", CondOp::kEq, db::Value::Text(event_type))
      .Where("superseded_by", CondOp::kEq, db::Value::Int(0));
  if (!session.view_predicate.empty()) {
    spec.RawPredicate(session.view_predicate);
  }
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, dm_->io().Query(spec));
  // Skip HLEs already in the catalog (idempotent regeneration).
  HEDC_ASSIGN_OR_RETURN(std::vector<int64_t> members,
                        dm_->semantics().ListCatalogHles(session, catalog_id));
  std::set<int64_t> present(members.begin(), members.end());
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    int64_t hle_id = rs.Get(i, "hle_id").AsInt();
    if (present.count(hle_id) > 0) continue;
    HEDC_RETURN_IF_ERROR(
        dm_->semantics().AddToCatalog(session, catalog_id, hle_id));
  }
  return catalog_id;
}

}  // namespace hedc::dm
