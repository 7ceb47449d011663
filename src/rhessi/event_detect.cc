#include "rhessi/event_detect.h"

#include <algorithm>
#include <cmath>

namespace hedc::rhessi {

void DetectionBinner::StoreBin(size_t bin, Sums sums, DetectionBins* bins) {
  if (bin >= bins->counts.size()) {
    bins->counts.resize(bin + 1, 0);
    bins->energy_sum.resize(bin + 1, 0.0);
    bins->hard_counts.resize(bin + 1, 0);
  }
  bins->counts[bin] += sums.count;
  bins->energy_sum[bin] += sums.energy;
  bins->hard_counts[bin] += sums.hard;
}

void DetectionBinner::FinishBins(size_t open, Sums sums, double t_last,
                                 DetectionBins* bins) {
  StoreBin(open, sums, bins);
  double last = std::ceil(t_last / bins->bin_sec);
  size_t num_bins = (last > 0 ? static_cast<size_t>(last) : 0) + 1;
  if (num_bins > bins->counts.size()) {
    bins->counts.resize(num_bins, 0);
    bins->energy_sum.resize(num_bins, 0.0);
    bins->hard_counts.resize(num_bins, 0);
  }
}

std::vector<DetectedEvent> DetectEvents(const PhotonList& photons,
                                        const DetectOptions& options) {
  DetectionBinner binner(options.bin_sec);
  DetectionBins bins;
  for (const PhotonEvent& p : photons) {
    binner.Add(p.time_sec, p.energy_kev, &bins);
  }
  binner.Finish(&bins);
  return DetectEventsFromBins(bins, options);
}

std::vector<DetectedEvent> DetectEventsFromBins(const DetectionBins& bins,
                                                const DetectOptions& options) {
  std::vector<DetectedEvent> out;
  const std::vector<int64_t>& counts = bins.counts;
  const std::vector<double>& energy_sum = bins.energy_sum;
  const std::vector<int64_t>& hard_counts = bins.hard_counts;
  const size_t num_bins = counts.size();
  const double bin_sec = bins.bin_sec;
  if (num_bins == 0) return out;

  // Background estimate: median bin rate.
  std::vector<int64_t> sorted = counts;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  double background =
      static_cast<double>(sorted[sorted.size() / 2]) / bin_sec;
  if (background <= 0) background = 1.0 / bin_sec;
  double threshold = background * options.threshold_factor;
  double quiet_level = background * options.quiet_factor;

  size_t close_gap_bins = static_cast<size_t>(
      std::max(1.0, options.close_gap_sec / bin_sec));

  // Burst detection: open at threshold crossing, close after a sustained
  // sub-threshold gap.
  size_t i = 0;
  while (i < num_bins) {
    double rate = static_cast<double>(counts[i]) / bin_sec;
    if (rate <= threshold) {
      ++i;
      continue;
    }
    size_t start = i;
    size_t last_active = i;
    size_t j = i + 1;
    while (j < num_bins) {
      double r = static_cast<double>(counts[j]) / bin_sec;
      if (r > threshold) {
        last_active = j;
      } else if (j - last_active > close_gap_bins) {
        break;
      }
      ++j;
    }
    DetectedEvent event;
    event.t_start = static_cast<double>(start) * bin_sec;
    event.t_end = static_cast<double>(last_active + 1) * bin_sec;
    int64_t total = 0, hard = 0;
    double e_sum = 0;
    double peak = 0;
    for (size_t b = start; b <= last_active; ++b) {
      total += counts[b];
      hard += hard_counts[b];
      e_sum += energy_sum[b];
      peak = std::max(peak,
                      static_cast<double>(counts[b]) / bin_sec);
    }
    event.photon_count = total;
    event.peak_rate = peak;
    event.peak_energy_kev = total > 0 ? e_sum / static_cast<double>(total) : 0;
    double duration = event.t_end - event.t_start;
    double hard_fraction =
        total > 0 ? static_cast<double>(hard) / static_cast<double>(total)
                  : 0;
    event.kind = (duration <= options.grb_max_duration_sec &&
                  hard_fraction >= options.grb_hard_fraction)
                     ? EventKind::kGammaRayBurst
                     : EventKind::kFlare;
    out.push_back(event);
    i = j;
  }

  // Quiet periods: sustained stretches below quiet_level.
  size_t quiet_min_bins = static_cast<size_t>(
      options.quiet_min_duration_sec / bin_sec);
  size_t run_start = 0;
  bool in_run = false;
  for (size_t b = 0; b <= num_bins; ++b) {
    bool quiet = b < num_bins &&
                 static_cast<double>(counts[b]) / bin_sec <=
                     quiet_level;
    if (quiet && !in_run) {
      in_run = true;
      run_start = b;
    } else if (!quiet && in_run) {
      in_run = false;
      if (b - run_start >= quiet_min_bins) {
        DetectedEvent event;
        event.kind = EventKind::kQuiet;
        event.t_start = static_cast<double>(run_start) * bin_sec;
        event.t_end = static_cast<double>(b) * bin_sec;
        out.push_back(event);
      }
    }
  }

  std::sort(out.begin(), out.end(),
            [](const DetectedEvent& a, const DetectedEvent& b) {
              return a.t_start < b.t_start;
            });
  return out;
}

double DetectionRecall(const std::vector<InjectedEvent>& truth,
                       const std::vector<DetectedEvent>& detected) {
  int64_t relevant = 0, hit = 0;
  for (const InjectedEvent& t : truth) {
    if (t.kind != EventKind::kFlare && t.kind != EventKind::kGammaRayBurst) {
      continue;
    }
    ++relevant;
    for (const DetectedEvent& d : detected) {
      if (d.kind != t.kind) continue;
      double overlap_lo = std::max(t.t_start, d.t_start);
      double overlap_hi = std::min(t.t_end, d.t_end);
      if (overlap_hi > overlap_lo) {
        ++hit;
        break;
      }
    }
  }
  return relevant == 0 ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(relevant);
}

}  // namespace hedc::rhessi
