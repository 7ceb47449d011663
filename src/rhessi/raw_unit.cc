#include "rhessi/raw_unit.h"

#include <algorithm>

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

namespace {

// Reads the header cards into `unit` (its photons untouched) and opens the
// PHOTONS payload, whose photon count must match NPHOTONS when given.
Result<PhotonPayload> ReadHeader(const archive::FitsFile& fits,
                                 RawDataUnit* unit) {
  if (fits.hdus().empty()) {
    return Status::Corruption("raw unit FITS has no primary HDU");
  }
  const archive::FitsHdu& primary = fits.hdus().front();
  unit->unit_id = primary.GetIntCard("UNIT_ID", -1);
  unit->t_start = primary.GetRealCard("TSTART");
  unit->t_stop = primary.GetRealCard("TSTOP");
  unit->calibration_version =
      static_cast<int>(primary.GetIntCard("CALVER", 1));
  const archive::FitsHdu* data = fits.FindHdu("PHOTONS");
  if (data == nullptr) {
    return Status::Corruption("raw unit FITS missing PHOTONS HDU");
  }
  HEDC_ASSIGN_OR_RETURN(PhotonPayload payload, OpenPhotons(data->data));
  int64_t declared = primary.GetIntCard("NPHOTONS", -1);
  if (declared >= 0 && static_cast<uint64_t>(declared) != payload.count) {
    return Status::Corruption(StrFormat(
        "photon count mismatch: header %lld vs payload %llu",
        static_cast<long long>(declared),
        static_cast<unsigned long long>(payload.count)));
  }
  return payload;
}

// The view's half of the binning: photons outside [t_start, t_stop + 1 µs)
// are skipped. Like DetectionBinner, it keeps the open bin's sums and
// stores them when the bin changes.
class ViewBinner {
 public:
  ViewBinner(double t_start, double t_stop)
      : lo_(t_start),
        hi_(t_stop + 1e-6),
        width_((hi_ - lo_) / static_cast<double>(kViewBins)) {}

  // An empty time range has no view.
  bool has_view() const { return hi_ > lo_; }

  void Add(double time_sec, float energy_kev, BinnedUnit* out) {
    if (!(time_sec >= lo_ && time_sec < hi_)) return;
    size_t b = static_cast<size_t>((time_sec - lo_) / width_);
    if (b >= kViewBins) b = kViewBins - 1;
    if (b != open_) {
      if (open_ != kNone) StoreBin(open_, count_, energy_, out);
      open_ = b;
      count_ = 0;
      energy_ = 0;
    }
    count_ += 1.0;
    energy_ += energy_kev;
  }

  void Finish(BinnedUnit* out) const {
    if (open_ != kNone) StoreBin(open_, count_, energy_, out);
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  static void StoreBin(size_t bin, double count, double energy,
                       BinnedUnit* out) {
    out->view_counts[bin] += count;
    out->view_energies[bin] += energy;
  }

  double lo_, hi_, width_;
  size_t open_ = kNone;
  double count_ = 0, energy_ = 0;
};

// The unit's header fields, with view bins to fill if it has a view.
BinnedUnit StartBinnedUnit(const RawDataUnit& header, size_t num_photons) {
  BinnedUnit out;
  out.unit_id = header.unit_id;
  out.t_start = header.t_start;
  out.t_stop = header.t_stop;
  out.calibration_version = header.calibration_version;
  out.num_photons = num_photons;
  if (ViewBinner(header.t_start, header.t_stop).has_view()) {
    out.view_counts.assign(kViewBins, 0.0);
    out.view_energies.assign(kViewBins, 0.0);
  }
  return out;
}

// Both binners over one photon stream, as a VisitPhotons visitor. The
// bins live in `out`, which the binners write only when a bin closes.
class UnitBinner {
 public:
  UnitBinner(const RawDataUnit& header, BinnedUnit* out)
      : detection_(DetectOptions{}.bin_sec),
        view_(header.t_start, header.t_stop),
        out_(out) {}

  // A photon later than kMaxPhotonTimeSec is not binned, only noted.
  void operator()(const PhotonEvent& p) {
    if (p.time_sec > kMaxPhotonTimeSec) {
      too_late_ = true;
      return;
    }
    detection_.Add(p.time_sec, p.energy_kev, &out_->detection);
    view_.Add(p.time_sec, p.energy_kev, out_);
  }
  bool too_late() const { return too_late_; }

  void Finish() const {
    detection_.Finish(&out_->detection);
    view_.Finish(out_);
  }

 private:
  DetectionBinner detection_;
  ViewBinner view_;
  BinnedUnit* out_;
  bool too_late_ = false;
};

Status LatePhotonError() {
  return Status::Corruption(
      StrFormat("raw unit photon later than %.0f s", kMaxPhotonTimeSec));
}

}  // namespace

Result<RawDataUnit> RawDataUnit::FromFits(const archive::FitsFile& fits) {
  RawDataUnit unit;
  HEDC_ASSIGN_OR_RETURN(PhotonPayload payload, ReadHeader(fits, &unit));
  HEDC_ASSIGN_OR_RETURN(unit.photons,
                        DecodePhotons(payload, &unit.time_sorted));
  auto late = [](const PhotonEvent& p) {
    return p.time_sec > kMaxPhotonTimeSec;
  };
  if (unit.time_sorted ? !unit.photons.empty() && late(unit.photons.back())
                       : std::any_of(unit.photons.begin(),
                                     unit.photons.end(), late)) {
    return LatePhotonError();
  }
  return unit;
}

std::vector<uint8_t> RawDataUnit::Pack() const {
  return ToFits().Serialize();
}

Result<RawDataUnit> RawDataUnit::Unpack(const std::vector<uint8_t>& bytes) {
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes));
  return FromFits(fits);
}

BinnedUnit BinUnit(const RawDataUnit& unit) {
  BinnedUnit out = StartBinnedUnit(unit, unit.photons.size());
  UnitBinner binner(unit, &out);
  for (const PhotonEvent& p : unit.photons) binner(p);
  binner.Finish();
  return out;
}

Result<BinnedUnit> UnpackBinned(const std::vector<uint8_t>& bytes) {
  HEDC_ASSIGN_OR_RETURN(archive::FitsFile fits,
                        archive::FitsFile::Parse(bytes));
  RawDataUnit header;
  HEDC_ASSIGN_OR_RETURN(PhotonPayload payload, ReadHeader(fits, &header));
  BinnedUnit out = StartBinnedUnit(header, payload.count);
  UnitBinner binner(header, &out);
  bool time_sorted = false;
  HEDC_RETURN_IF_ERROR(VisitPhotons(payload, binner, &time_sorted));
  if (!time_sorted) {
    return Status::Corruption("raw unit photon times decrease");
  }
  if (binner.too_late()) return LatePhotonError();
  binner.Finish();
  return out;
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
