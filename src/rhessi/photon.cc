#include "rhessi/photon.h"

#include <cmath>

#include "core/bytes.h"

namespace hedc::rhessi {

namespace {
constexpr uint32_t kPhotonMagic = 0x48504831;  // "HPH1"
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

Result<PhotonPayload> OpenPhotons(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kPhotonMagic) {
    return Status::Corruption("not a photon list (bad magic)");
  }
  PhotonPayload payload;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&payload.count));
  if (payload.count >
      reader.remaining() / photon_internal::kMinPhotonBytes) {
    return Status::Corruption("photon count exceeds the payload");
  }
  payload.begin = bytes.data() + reader.position();
  payload.end = bytes.data() + bytes.size();
  return payload;
}

Result<PhotonList> DecodePhotons(const std::vector<uint8_t>& bytes,
                                 bool* time_sorted) {
  HEDC_ASSIGN_OR_RETURN(PhotonPayload payload, OpenPhotons(bytes));
  return DecodePhotons(payload, time_sorted);
}

Result<PhotonList> DecodePhotons(const PhotonPayload& payload,
                                 bool* time_sorted) {
  PhotonList out;
  out.reserve(payload.count);
  HEDC_RETURN_IF_ERROR(VisitPhotons(
      payload, [&out](const PhotonEvent& p) { out.push_back(p); },
      time_sorted));
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
