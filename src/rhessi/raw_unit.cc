#include "rhessi/raw_unit.h"

#include <algorithm>

#include "archive/compression.h"
#include "core/strings.h"

namespace hedc::rhessi {

archive::FitsFile RawDataUnit::ToFits() const {
  archive::FitsFile fits;
  archive::FitsHdu& primary = fits.primary();
  primary.SetCard("TELESCOP", "RHESSI", "synthetic reproduction");
  primary.SetCard("UNIT_ID", std::to_string(unit_id), "raw data unit id");
  primary.SetCard("TSTART", StrFormat("%.6f", t_start),
                  "observation start [s]");
  primary.SetCard("TSTOP", StrFormat("%.6f", t_stop),
                  "observation stop [s]");
  primary.SetCard("NPHOTONS", std::to_string(photons.size()),
                  "photon count");
  primary.SetCard("CALVER", std::to_string(calibration_version),
                  "calibration version");
  archive::FitsHdu& data = fits.AddHdu("PHOTONS");
  data.data = EncodePhotons(photons);
  data.SetCard("ENCODING", "HPH1", "delta-coded photon list");
  return fits;
}

Result<RawDataUnit> RawDataUnit::FromFits(const archive::FitsFile& fits) {
  if (fits.hdus().empty()) {
    return Status::Corruption("raw unit FITS has no primary HDU");
  }
  const archive::FitsHdu& primary = fits.hdus().front();
  RawDataUnit unit;
  unit.unit_id = primary.GetIntCard("UNIT_ID", -1);
  unit.t_start = primary.GetRealCard("TSTART");
  unit.t_stop = primary.GetRealCard("TSTOP");
  unit.calibration_version =
      static_cast<int>(primary.GetIntCard("CALVER", 1));
  const archive::FitsHdu* data = fits.FindHdu("PHOTONS");
  if (data == nullptr) {
    return Status::Corruption("raw unit FITS missing PHOTONS HDU");
  }
  HEDC_ASSIGN_OR_RETURN(unit.photons,
                        DecodePhotons(data->data, &unit.time_sorted));
  int64_t declared = primary.GetIntCard("NPHOTONS", -1);
  if (declared >= 0 &&
      declared != static_cast<int64_t>(unit.photons.size())) {
    return Status::Corruption(
        StrFormat("photon count mismatch: header %lld vs payload %zu",
                  static_cast<long long>(declared), unit.photons.size()));
  }
  return unit;
}

std::vector<uint8_t> RawDataUnit::Pack() const {
  return ToFits().Serialize();
}

Result<RawDataUnit> RawDataUnit::Unpack(const std::vector<uint8_t>& bytes) {
  // Units stored before Pack wrote plain FITS-lite are hzip streams.
  if (archive::IsCompressed(bytes)) {
    HEDC_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                          archive::Decompress(bytes));
    HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                          archive::FitsFile::Parse(raw));
    return FromFits(fits);
  }
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes));
  return FromFits(fits);
}

std::vector<RawDataUnit> SegmentIntoUnits(const PhotonList& photons,
                                          size_t max_photons_per_unit,
                                          int64_t first_unit_id,
                                          int calibration_version) {
  std::vector<RawDataUnit> units;
  if (max_photons_per_unit == 0) max_photons_per_unit = 1;
  for (size_t off = 0; off < photons.size();
       off += max_photons_per_unit) {
    size_t n = std::min(max_photons_per_unit, photons.size() - off);
    RawDataUnit unit;
    unit.unit_id = first_unit_id++;
    unit.calibration_version = calibration_version;
    unit.photons.assign(photons.begin() + off, photons.begin() + off + n);
    unit.t_start = unit.photons.front().time_sec;
    unit.t_stop = unit.photons.back().time_sec;
    units.push_back(std::move(unit));
  }
  return units;
}

}  // namespace hedc::rhessi
