// Photon-event data model.
//
// §3.4: RHESSI raw data "is a list of photon impacts on the detectors,
// with an energy and a time tag attached to each record". RHESSI has 9
// rotating modulation collimators, each with front/rear germanium
// detector segments, covering 3 keV .. 20 MeV (§2.1).
#ifndef HEDC_RHESSI_PHOTON_H_
#define HEDC_RHESSI_PHOTON_H_

#include <cstdint>
#include <vector>

#include "core/status.h"

namespace hedc::rhessi {

constexpr int kNumCollimators = 9;
constexpr double kMinEnergyKev = 3.0;       // soft X-ray end
constexpr double kMaxEnergyKev = 20000.0;   // 20 MeV in keV
// Spacecraft spin: ~15 rpm => 4 s rotation period.
constexpr double kSpinPeriodSec = 4.0;

struct PhotonEvent {
  double time_sec = 0;      // seconds since observation start
  float energy_kev = 0;     // photon energy
  uint8_t detector = 0;     // collimator index [0, 9)
  uint8_t segment = 0;      // 0 = front, 1 = rear
};

using PhotonList = std::vector<PhotonEvent>;

// Compact binary codec (delta-coded times, quantized to microseconds).
// Decode returns kCorruption for truncated, overflowing or over-counted
// input. If `time_sorted` is given, it reports whether every time delta
// was >= 0, i.e. the decoded times never decrease.
std::vector<uint8_t> EncodePhotons(const PhotonList& photons);
Result<PhotonList> DecodePhotons(const std::vector<uint8_t>& bytes,
                                 bool* time_sorted = nullptr);

// Counts photons whose time lies in [t0, t1) and energy in [e0, e1).
int64_t CountInWindow(const PhotonList& photons, double t0, double t1,
                      double e0, double e1);

}  // namespace hedc::rhessi

#endif  // HEDC_RHESSI_PHOTON_H_
