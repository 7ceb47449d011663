#include "rhessi/photon.h"

#include <cmath>

#include "core/bytes.h"

namespace hedc::rhessi {

namespace {

constexpr uint32_t kPhotonMagic = 0x48504831;  // "HPH1"
// An encoded photon is a zigzag time delta, an energy varint and one
// packed byte: at least 3 bytes, at most two 10-byte varints plus one.
constexpr size_t kMinPhotonBytes = 3;
constexpr size_t kMaxPhotonBytes = 21;

// LEB128 decode with no length check: the caller guarantees 10 readable
// bytes. Applies ByteReader::GetVarint's overflow rule (the 10th byte may
// only be 0 or 1); returns nullptr on overflow.
const uint8_t* GetVarintUnchecked(const uint8_t* p, uint64_t* out) {
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

PhotonEvent MakePhoton(int64_t micros, uint64_t energy_deci,
                       uint8_t packed) {
  PhotonEvent p;
  p.time_sec = static_cast<double>(micros) * 1e-6;
  p.energy_kev = static_cast<float>(energy_deci) / 10.0f;
  p.detector = packed & 0x0f;
  p.segment = packed >> 4;
  return p;
}

// Wrapping add: a corrupt delta must not be signed overflow.
int64_t AddDelta(int64_t micros, int64_t dt) {
  return static_cast<int64_t>(static_cast<uint64_t>(micros) +
                              static_cast<uint64_t>(dt));
}

}  // namespace

std::vector<uint8_t> EncodePhotons(const PhotonList& photons) {
  ByteBuffer out;
  out.PutU32(kPhotonMagic);
  out.PutVarint(photons.size());
  int64_t prev_micros = 0;
  for (const PhotonEvent& p : photons) {
    int64_t t = static_cast<int64_t>(std::llround(p.time_sec * 1e6));
    out.PutSignedVarint(t - prev_micros);
    prev_micros = t;
    // Energy quantized to 0.1 keV (well under the 1 keV instrument
    // resolution, §2.1).
    out.PutVarint(static_cast<uint64_t>(
        std::llround(static_cast<double>(p.energy_kev) * 10.0)));
    out.PutU8(static_cast<uint8_t>((p.detector & 0x0f) |
                                   (p.segment << 4)));
  }
  return std::move(out).TakeData();
}

Result<PhotonList> DecodePhotons(const std::vector<uint8_t>& bytes,
                                 bool* time_sorted) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kPhotonMagic) {
    return Status::Corruption("not a photon list (bad magic)");
  }
  uint64_t n = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&n));
  if (n > reader.remaining() / kMinPhotonBytes) {
    return Status::Corruption("photon count exceeds the payload");
  }
  PhotonList out(n);
  const uint8_t* p = bytes.data() + reader.position();
  const uint8_t* const end = bytes.data() + bytes.size();
  int64_t prev_micros = 0;
  bool negative_delta = false;
  uint64_t i = 0;
  // While a maximal photon fits, one length check covers a whole photon.
  for (; i < n && static_cast<size_t>(end - p) >= kMaxPhotonBytes; ++i) {
    uint64_t zigzag = 0, energy_deci = 0;
    p = GetVarintUnchecked(p, &zigzag);
    if (p != nullptr) p = GetVarintUnchecked(p, &energy_deci);
    if (p == nullptr) return Status::Corruption("varint overflow");
    uint8_t packed = *p++;
    negative_delta |= (zigzag & 1) != 0;
    prev_micros = AddDelta(prev_micros, ZigZagDecode(zigzag));
    out[i] = MakePhoton(prev_micros, energy_deci, packed);
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
    negative_delta |= dt < 0;
    prev_micros = AddDelta(prev_micros, dt);
    out[i] = MakePhoton(prev_micros, energy_deci, packed);
  }
  if (time_sorted != nullptr) *time_sorted = !negative_delta;
  return out;
}

int64_t CountInWindow(const PhotonList& photons, double t0, double t1,
                      double e0, double e1) {
  int64_t count = 0;
  for (const PhotonEvent& p : photons) {
    if (p.time_sec >= t0 && p.time_sec < t1 && p.energy_kev >= e0 &&
        p.energy_kev < e1) {
      ++count;
    }
  }
  return count;
}

}  // namespace hedc::rhessi
