// The DM process layer (§5.2): multi-step workflows with compensation.
//
// "One such process defines, e.g., the workflow during physical archive
// relocation. First, tuples referenced or referencing an entity are
// queried and altered, then the corresponding files are copied,
// compensating actions are taken if failures occur, and finally logs are
// generated. Other processes implement raw data preparation, event
// filtering, entity association, and catalog generation."
#ifndef HEDC_DM_PROCESS_LAYER_H_
#define HEDC_DM_PROCESS_LAYER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "dm/dm.h"
#include "rhessi/calibration.h"
#include "rhessi/phoenix.h"
#include "rhessi/event_detect.h"
#include "rhessi/raw_unit.h"

namespace hedc::dm {

struct DataLoadReport {
  int64_t unit_id = 0;
  size_t photons = 0;
  size_t file_bytes = 0;
  std::vector<int64_t> hle_ids;       // events entered into the catalog
  int64_t standard_catalog_id = 0;
};

class ProcessLayer {
 public:
  // `raw_archive_id` is where raw data unit files are stored.
  ProcessLayer(DataManager* dm, int64_t raw_archive_id);

  // Raw data preparation + event filtering + entity association +
  // catalog generation, as one workflow:
  //  1. unpack & validate the packed raw unit, decoding its photons
  //     once straight into the detection and view bins (no photon list
  //     is built; a unit whose photon times decrease is kCorruption),
  //  2. store the file, register its locations, insert the raw_units
  //     tuple,
  //  3. run event detection over the detection bins,
  //  4. create an HLE per detected event (owned by the import session),
  //     made public, grouped into the "standard" catalog,
  //  5. write the wavelet-preprocessed view alongside (progressive
  //     access path, §3.4),
  //  6. log the load.
  // Compensation: on failure, previously-written files/tuples of this
  // load are removed.
  Result<DataLoadReport> LoadRawUnit(const Session& import_session,
                                     const std::vector<uint8_t>& packed);

  // Physical archive relocation: move every file of `item_ids` from
  // `from_archive` to `to_archive`, updating only location tuples. On a
  // copy failure, already-moved entries are compensated back.
  Status RelocateItems(const std::vector<int64_t>& item_ids,
                       int64_t from_archive, int64_t to_archive,
                       const std::string& new_rel_path);

  // Recalibration (§3.1): re-derives a raw unit's photons under a new
  // calibration, writes a new versioned file, updates the unit tuple, and
  // supersedes affected HLEs with re-detected events.
  Result<DataLoadReport> RecalibrateUnit(
      const Session& session, int64_t unit_id,
      const rhessi::CalibrationTable& calibrations, int new_version);

  // Catalog generation: groups visible HLEs matching an event type into
  // a (new or existing) catalog owned by the session user.
  Result<int64_t> GenerateCatalog(const Session& session,
                                  const std::string& catalog_name,
                                  const std::string& event_type);

  // --- Phoenix-2 extension (§2.2) ---------------------------------------
  // Loads a Phoenix-2 spectrogram: creates the phoenix_spectra domain
  // slice on first use (the generic schema part is untouched), stores the
  // FITS file, registers locations, detects radio bursts and enters them
  // as HLEs in the "phoenix" catalog. Returns the spectrum id.
  Result<int64_t> LoadPhoenixSpectrogram(
      const Session& session, const rhessi::PhoenixSpectrogram& spectrum);

  // --- purging (administrative "data refresh and purging rules") --------
  // Deletes private, non-superseding analyses created before
  // `older_than_sec` (session seconds), removing their tuples, lineage
  // and image files. Super-user only. Returns the number purged.
  Result<int64_t> PurgeStaleAnalyses(const Session& session,
                                     double older_than_sec);

  // --- derived-product invalidation hooks --------------------------------
  // Recalibration changes a unit's content: derived-product caches (see
  // pl::ProductCache) register here to drop dependent entries. Invoked
  // after the version bump is durable in raw_units, so a racing cache
  // miss keyed on the old version can never survive the drop.
  using UnitInvalidator = std::function<void(int64_t unit_id)>;
  void SetDerivedProductInvalidator(UnitInvalidator fn) {
    unit_invalidator_ = std::move(fn);
  }
  // Purge hook: invoked once per analysis removed by PurgeStaleAnalyses,
  // after its tuple/file are gone, so caches sharing the ana id drop it.
  using AnaPurgeListener = std::function<void(int64_t ana_id)>;
  void SetAnaPurgeListener(AnaPurgeListener fn) {
    ana_purge_listener_ = std::move(fn);
  }

  // The wavelet view id space: item id under which a unit's progressive
  // view file is registered.
  static int64_t ViewItemId(int64_t unit_id) { return 1000000000 + unit_id; }
  // Item-id space for Phoenix spectrogram files.
  static int64_t PhoenixItemId(int64_t spectrum_id) {
    return 3000000000 + spectrum_id;
  }

 private:
  Result<int64_t> InsertRawUnitTuple(const rhessi::BinnedUnit& unit,
                                     size_t file_bytes);
  // Builds and stores the unit's progressive view file from its view
  // bins: a FITS-lite container with a "VIEW" HDU (photon counts per bin)
  // and a "VIEW_E" HDU (summed keV per bin), both prefix-decodable HWV3
  // streams. Overwrites in place when the view item already exists
  // (recalibration). Writes nothing when the unit has no view bins.
  bool WriteViewFile(const rhessi::BinnedUnit& unit);

  DataManager* dm_;
  int64_t raw_archive_id_;
  UnitInvalidator unit_invalidator_;
  AnaPurgeListener ana_purge_listener_;
};

}  // namespace hedc::dm

#endif  // HEDC_DM_PROCESS_LAYER_H_
