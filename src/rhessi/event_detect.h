// Automatic event detection over raw photon lists.
//
// §2.2: when raw data units reach HEDC "they are once more searched for
// interesting events, using programs that detect a wider range of events
// such as solar flares, gamma ray bursts, or quiet periods". The detector
// is rate-threshold based over 1-second bins with a hardness-ratio test
// to separate GRBs (hard, short) from flares (soft, long).
#ifndef HEDC_RHESSI_EVENT_DETECT_H_
#define HEDC_RHESSI_EVENT_DETECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rhessi/photon.h"
#include "rhessi/telemetry.h"

namespace hedc::rhessi {

struct DetectedEvent {
  EventKind kind = EventKind::kFlare;
  double t_start = 0;
  double t_end = 0;
  double peak_rate = 0;       // photons/s in the peak bin
  double peak_energy_kev = 0; // mean energy over the event
  int64_t photon_count = 0;
};

struct DetectOptions {
  double bin_sec = 1.0;
  // Rate must exceed background * threshold_factor to open an event.
  double threshold_factor = 3.0;
  // Events shorter than this are GRB candidates (if hard).
  double grb_max_duration_sec = 20.0;
  // Hardness: fraction of photons above 100 keV for a GRB call.
  double grb_hard_fraction = 0.5;
  // Gaps below threshold longer than this close an event.
  double close_gap_sec = 10.0;
  // Stretches below background*quiet_factor at least this long become
  // quiet-period events.
  double quiet_min_duration_sec = 300.0;
  double quiet_factor = 0.5;
};

// What detection reads of a photon list: per `bin_sec` time bin, the
// photon count, the summed keV and the count above 100 keV. Bins run
// from t = 0 to bin ceil(t_last / bin_sec), t_last being the last
// photon's time; no photons means no bins.
struct DetectionBins {
  double bin_sec = 1.0;
  std::vector<int64_t> counts;
  std::vector<double> energy_sum;
  std::vector<int64_t> hard_counts;
};

// Fills DetectionBins from photons added in time order. Sorted photons
// hit one bin many times in a row, so the open bin's sums stay in the
// binner and are stored in the bins when the bin changes; the sums are
// added in photon order either way. A time before 0 counts in bin 0. The
// bins are a separate object that the binner writes only when a bin
// closes, so the per-photon state is the binner's few scalars.
class DetectionBinner {
 public:
  explicit DetectionBinner(double bin_sec) : bin_sec_(bin_sec) {}

  void Add(double time_sec, float energy_kev, DetectionBins* bins) {
    double x = time_sec / bin_sec_;
    size_t b = x > 0 ? static_cast<size_t>(x) : 0;
    if (b != open_) {
      if (open_ != kNone) StoreBin(open_, sums_, bins);
      open_ = b;
      sums_ = Sums{};
    }
    ++sums_.count;
    sums_.energy += energy_kev;
    if (energy_kev > 100.0) ++sums_.hard;
    t_last_ = time_sec;
  }

  // Stores the open bin and pads the bins through bin
  // ceil(t_last / bin_sec).
  void Finish(DetectionBins* bins) const {
    bins->bin_sec = bin_sec_;
    if (open_ != kNone) FinishBins(open_, sums_, t_last_, bins);
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  struct Sums {
    int64_t count = 0;
    double energy = 0;
    int64_t hard = 0;
  };
  static void StoreBin(size_t bin, Sums sums, DetectionBins* bins);
  static void FinishBins(size_t open, Sums sums, double t_last,
                         DetectionBins* bins);

  double bin_sec_;
  size_t open_ = kNone;
  Sums sums_;
  double t_last_ = 0;
};

// Rate-threshold detection over finished bins (their own `bin_sec`; the
// options' is not read). Background is estimated as the median bin rate.
std::vector<DetectedEvent> DetectEventsFromBins(
    const DetectionBins& bins, const DetectOptions& options = {});

// Bins `photons`, which must be time-sorted, and detects over the bins.
std::vector<DetectedEvent> DetectEvents(const PhotonList& photons,
                                        const DetectOptions& options = {});

// Matching score against ground truth: fraction of injected flare/GRB
// events overlapped by a detection of the same kind.
double DetectionRecall(const std::vector<InjectedEvent>& truth,
                       const std::vector<DetectedEvent>& detected);

}  // namespace hedc::rhessi

#endif  // HEDC_RHESSI_EVENT_DETECT_H_
