#include "rhessi/calibration.h"

#include <algorithm>

#include "core/strings.h"

namespace hedc::rhessi {

CalibrationTable::CalibrationTable() {
  CalibrationVersion identity;
  identity.version = 1;
  identity.description = "launch calibration (identity)";
  versions_[1] = identity;
}

Status CalibrationTable::Register(CalibrationVersion version) {
  if (version.version <= 0) {
    return Status::InvalidArgument("calibration versions are positive");
  }
  if (versions_.count(version.version) > 0) {
    return Status::AlreadyExists(
        StrFormat("calibration version %d", version.version));
  }
  for (int d = 0; d < kNumCollimators; ++d) {
    if (version.gain[d] == 0) {
      return Status::InvalidArgument("zero gain is not invertible");
    }
  }
  versions_[version.version] = std::move(version);
  return Status::Ok();
}

Result<CalibrationVersion> CalibrationTable::Get(int version) const {
  auto it = versions_.find(version);
  if (it == versions_.end()) {
    return Status::NotFound(StrFormat("calibration version %d", version));
  }
  return it->second;
}

int CalibrationTable::LatestVersion() const {
  return versions_.empty() ? 0 : versions_.rbegin()->first;
}

Result<PhotonList> CalibrationTable::Recalibrate(const PhotonList& photons,
                                                 int from_version,
                                                 int to_version) const {
  HEDC_ASSIGN_OR_RETURN(CalibrationVersion from, Get(from_version));
  HEDC_ASSIGN_OR_RETURN(CalibrationVersion to, Get(to_version));
  PhotonList out = photons;
  for (PhotonEvent& p : out) {
    int d = p.detector % kNumCollimators;
    // Undo the old correction to recover the raw pulse height, then apply
    // the new one.
    double raw = (static_cast<double>(p.energy_kev) - from.offset_kev[d]) /
                 from.gain[d];
    double corrected = raw * to.gain[d] + to.offset_kev[d];
    p.energy_kev = static_cast<float>(
        std::clamp(corrected, kMinEnergyKev, kMaxEnergyKev));
  }
  return out;
}

}  // namespace hedc::rhessi
