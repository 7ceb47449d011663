// Raw data units: telemetry segmented along the time axis and packaged
// into FITS files (§2.1's "units of roughly 40 MB ... formatted as FITS
// and compressed using gnu-zip", scaled down). New units are stored as
// plain FITS-lite: hzip makes the delta-coded photon payload 2-3% larger
// (bench/abl_compression). Units stored in the older hzip form still
// unpack.
#ifndef HEDC_RHESSI_RAW_UNIT_H_
#define HEDC_RHESSI_RAW_UNIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "archive/fits.h"
#include "core/status.h"
#include "rhessi/event_detect.h"
#include "rhessi/photon.h"

namespace hedc::rhessi {

struct RawDataUnit {
  int64_t unit_id = 0;
  double t_start = 0;
  double t_stop = 0;
  int calibration_version = 1;
  PhotonList photons;
  // Set by FromFits: the decoded photon times never decrease (every
  // encoded delta is >= 0), so a time window is a contiguous range.
  bool time_sorted = false;

  // Packages into a FITS-lite container (header cards: UNIT_ID, TSTART,
  // TSTOP, NPHOTONS, CALVER; "PHOTONS" HDU holds the encoded list).
  archive::FitsFile ToFits() const;
  static Result<RawDataUnit> FromFits(const archive::FitsFile& fits);

  // Serialize / parse round trip. Unpack also reads units in the hzip
  // form older versions of Pack wrote.
  std::vector<uint8_t> Pack() const;
  static Result<RawDataUnit> Unpack(const std::vector<uint8_t>& bytes);
};

// A unit's stored view has kViewBins time bins over
// [t_start, t_stop + 1 µs).
constexpr size_t kViewBins = 1024;

// What loading a unit derives from its photons: its header fields, its
// photon count, the detection bins, and the stored view's two signals
// (photon counts and summed keV per view bin). The view signals are empty
// when the header's time range is.
struct BinnedUnit {
  int64_t unit_id = 0;
  double t_start = 0;
  double t_stop = 0;
  int calibration_version = 1;
  size_t num_photons = 0;
  DetectionBins detection;
  std::vector<double> view_counts;
  std::vector<double> view_energies;
};

// Bins a unit's photons, which must be time-sorted.
BinnedUnit BinUnit(const RawDataUnit& unit);

// Unpack and BinUnit in one pass over the encoded photons, without
// building the photon list. Fails where Unpack fails, and with
// kCorruption for a unit whose photon times decrease.
Result<BinnedUnit> UnpackBinned(const std::vector<uint8_t>& bytes);

// Splits telemetry into units of at most `max_photons_per_unit` photons,
// cutting on the time axis. Unit ids start at `first_unit_id`.
std::vector<RawDataUnit> SegmentIntoUnits(const PhotonList& photons,
                                          size_t max_photons_per_unit,
                                          int64_t first_unit_id = 1,
                                          int calibration_version = 1);

}  // namespace hedc::rhessi

#endif  // HEDC_RHESSI_RAW_UNIT_H_
