// Calibration versions and lineage (§3.1): "it is to be expected that the
// raw data will be recalibrated several times. Accordingly, the raw data
// and all the derived data based on it must be versioned. In addition,
// data and analysis algorithms need support for lineage tracking."
#ifndef HEDC_RHESSI_CALIBRATION_H_
#define HEDC_RHESSI_CALIBRATION_H_

#include <map>
#include <string>
#include <vector>

#include "core/status.h"
#include "rhessi/photon.h"

namespace hedc::rhessi {

// Per-detector linear energy correction: e' = gain * e + offset_kev.
struct CalibrationVersion {
  int version = 1;
  std::string description;
  double gain[kNumCollimators] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  double offset_kev[kNumCollimators] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
};

// Lineage record: how a data item was derived.
struct LineageRecord {
  int64_t item_id = 0;          // derived item
  int64_t source_item_id = 0;   // input item (0 = external)
  std::string operation;        // e.g. "recalibrate", "imaging"
  int calibration_version = 0;
  std::string parameters;
};

class CalibrationTable {
 public:
  CalibrationTable();  // seeds version 1 = identity

  Status Register(CalibrationVersion version);
  Result<CalibrationVersion> Get(int version) const;
  int LatestVersion() const;

  // Recalibrates photons from `from_version` to `to_version` by undoing
  // the old correction and applying the new one.
  Result<PhotonList> Recalibrate(const PhotonList& photons, int from_version,
                                 int to_version) const;

 private:
  std::map<int, CalibrationVersion> versions_;
};

}  // namespace hedc::rhessi

#endif  // HEDC_RHESSI_CALIBRATION_H_
