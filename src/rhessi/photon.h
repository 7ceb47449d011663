// Photon-event data model.
//
// §3.4: RHESSI raw data "is a list of photon impacts on the detectors,
// with an energy and a time tag attached to each record". RHESSI has 9
// rotating modulation collimators, each with front/rear germanium
// detector segments, covering 3 keV .. 20 MeV (§2.1).
#ifndef HEDC_RHESSI_PHOTON_H_
#define HEDC_RHESSI_PHOTON_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bytes.h"
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
// input. If `time_sorted` is given, it reports whether the decoded times
// never decrease and none is negative.
std::vector<uint8_t> EncodePhotons(const PhotonList& photons);
Result<PhotonList> DecodePhotons(const std::vector<uint8_t>& bytes,
                                 bool* time_sorted = nullptr);

// An encoded photon list whose header has been checked: the magic, and a
// declared count the remaining bytes could hold. `begin`/`end` point into
// the bytes it was opened from.
struct PhotonPayload {
  uint64_t count = 0;
  const uint8_t* begin = nullptr;
  const uint8_t* end = nullptr;
};
Result<PhotonPayload> OpenPhotons(const std::vector<uint8_t>& bytes);
Result<PhotonList> DecodePhotons(const PhotonPayload& payload,
                                 bool* time_sorted = nullptr);

// Decodes the payload's `count` photons in order and passes each to
// `visit(const PhotonEvent&)`, without building a list. This is the one
// photon decode loop; DecodePhotons collects what it visits. Returns
// kCorruption where DecodePhotons does, possibly after visiting some
// photons. `time_sorted` is as for DecodePhotons.
template <typename Visit>
Status VisitPhotons(const PhotonPayload& payload, Visit&& visit,
                    bool* time_sorted = nullptr);

// Counts photons whose time lies in [t0, t1) and energy in [e0, e1).
int64_t CountInWindow(const PhotonList& photons, double t0, double t1,
                      double e0, double e1);

namespace photon_internal {

// An encoded photon is a zigzag time delta, an energy varint and one
// packed byte: at least 3 bytes, at most two 10-byte varints plus one.
constexpr size_t kMinPhotonBytes = 3;
constexpr size_t kMaxPhotonBytes = 21;

// LEB128 decode with no length check: the caller guarantees 10 readable
// bytes. Applies ByteReader::GetVarint's overflow rule (the 10th byte may
// only be 0 or 1); returns nullptr on overflow.
inline const uint8_t* GetVarintUnchecked(const uint8_t* p, uint64_t* out) {
  uint64_t b = *p++;
  uint64_t v = b & 0x7f;
  for (int shift = 7; b & 0x80; shift += 7) {
    b = *p++;
    if (shift == 63 && b > 1) return nullptr;
    v |= (b & 0x7f) << shift;
  }
  *out = v;
  return p;
}

inline PhotonEvent MakePhoton(int64_t micros, uint64_t energy_deci,
                              uint8_t packed) {
  PhotonEvent p;
  p.time_sec = static_cast<double>(micros) * 1e-6;
  p.energy_kev = static_cast<float>(energy_deci) / 10.0f;
  p.detector = packed & 0x0f;
  p.segment = packed >> 4;
  return p;
}

// Wrapping add: a corrupt delta must not be signed overflow.
inline int64_t AddDelta(int64_t micros, int64_t dt) {
  return static_cast<int64_t>(static_cast<uint64_t>(micros) +
                              static_cast<uint64_t>(dt));
}

}  // namespace photon_internal

template <typename Visit>
Status VisitPhotons(const PhotonPayload& payload, Visit&& visit,
                    bool* time_sorted) {
  using namespace photon_internal;
  const uint8_t* p = payload.begin;
  const uint8_t* const end = payload.end;
  const uint64_t n = payload.count;
  // Times start at 0, so a first negative time also counts as a decrease,
  // and so does a delta that wraps around.
  int64_t prev_micros = 0;
  bool decreased = false;
  uint64_t i = 0;
  // While a maximal photon fits, one length check covers a whole photon.
  for (; i < n && static_cast<size_t>(end - p) >= kMaxPhotonBytes; ++i) {
    uint64_t zigzag = 0, energy_deci = 0;
    p = GetVarintUnchecked(p, &zigzag);
    if (p != nullptr) p = GetVarintUnchecked(p, &energy_deci);
    if (p == nullptr) return Status::Corruption("varint overflow");
    uint8_t packed = *p++;
    int64_t micros = AddDelta(prev_micros, ZigZagDecode(zigzag));
    decreased |= micros < prev_micros;
    prev_micros = micros;
    visit(MakePhoton(micros, energy_deci, packed));
  }
  // The last few photons: every field checked against the end.
  ByteReader tail(p, static_cast<size_t>(end - p));
  for (; i < n; ++i) {
    int64_t dt = 0;
    uint64_t energy_deci = 0;
    uint8_t packed = 0;
    HEDC_RETURN_IF_ERROR(tail.GetSignedVarint(&dt));
    HEDC_RETURN_IF_ERROR(tail.GetVarint(&energy_deci));
    HEDC_RETURN_IF_ERROR(tail.GetU8(&packed));
    int64_t micros = AddDelta(prev_micros, dt);
    decreased |= micros < prev_micros;
    prev_micros = micros;
    visit(MakePhoton(micros, energy_deci, packed));
  }
  if (time_sorted != nullptr) *time_sorted = !decreased;
  return Status::Ok();
}

}  // namespace hedc::rhessi

#endif  // HEDC_RHESSI_PHOTON_H_
