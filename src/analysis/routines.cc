// Standard analysis routines: imaging (back-projection), lightcurve,
// spectrogram, histogram.
#include <algorithm>
#include <cmath>

#include "analysis/routine.h"
#include "core/strings.h"

namespace hedc::analysis {

void AnalysisParams::SetDouble(const std::string& key, double value) {
  values_[key] = StrFormat("%.10g", value);
}

void AnalysisParams::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}

std::string AnalysisParams::Get(const std::string& key,
                                const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double AnalysisParams::GetDouble(const std::string& key,
                                 double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double v;
  return ParseDouble(it->second, &v) ? v : fallback;
}

int64_t AnalysisParams::GetInt(const std::string& key,
                               int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  int64_t v;
  return ParseInt64(it->second, &v) ? v : fallback;
}

std::string AnalysisParams::Canonical() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

void RoutineRegistry::Register(std::unique_ptr<AnalysisRoutine> routine) {
  routines_[routine->name()] = std::move(routine);
}

const AnalysisRoutine* RoutineRegistry::Get(const std::string& name) const {
  auto it = routines_.find(name);
  return it == routines_.end() ? nullptr : it->second.get();
}

std::vector<std::string> RoutineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(routines_.size());
  for (const auto& [name, routine] : routines_) names.push_back(name);
  return names;
}

namespace {

double WindowStart(const AnalysisParams& params) {
  return params.GetDouble("t_start", 0);
}

double WindowEnd(const AnalysisParams& params) {
  return params.GetDouble("t_end", 1e18);
}

// Selects photons inside the requested time/energy window.
rhessi::PhotonList Window(const rhessi::PhotonList& photons,
                          const AnalysisParams& params) {
  double t0 = WindowStart(params);
  double t1 = WindowEnd(params);
  double e0 = params.GetDouble("e_min", rhessi::kMinEnergyKev);
  double e1 = params.GetDouble("e_max", rhessi::kMaxEnergyKev);
  rhessi::PhotonList out;
  for (const rhessi::PhotonEvent& p : photons) {
    if (p.time_sec >= t0 && p.time_sec < t1 && p.energy_kev >= e0 &&
        p.energy_kev < e1) {
      out.push_back(p);
    }
  }
  return out;
}

// Lightcurve: photon counts per time bin.
class LightcurveRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "lightcurve"; }

  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams& params) const override {
    double bin = params.GetDouble("bin_sec", 1.0);
    if (bin <= 0) return Status::InvalidArgument("bin_sec must be positive");
    rhessi::PhotonList selected = Window(photons, params);
    AnalysisProduct product;
    product.routine = name();
    Series series;
    if (!selected.empty()) {
      double t0 = selected.front().time_sec;
      double t1 = selected.back().time_sec;
      size_t bins = static_cast<size_t>((t1 - t0) / bin) + 1;
      series.x.resize(bins);
      series.y.assign(bins, 0.0);
      for (size_t i = 0; i < bins; ++i) {
        series.x[i] = t0 + static_cast<double>(i) * bin;
      }
      for (const rhessi::PhotonEvent& p : selected) {
        size_t b = static_cast<size_t>((p.time_sec - t0) / bin);
        if (b >= bins) b = bins - 1;
        series.y[b] += 1.0;
      }
    }
    product.rendered = RenderSeries(series);
    product.metadata["photons"] = std::to_string(selected.size());
    product.metadata["bin_sec"] = StrFormat("%.6g", bin);
    product.series = std::move(series);
    product.log = StrFormat("lightcurve over %zu photons", selected.size());
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams&) const override {
    // Linear in input size (§3.4: "linear for short analyses").
    return static_cast<double>(photon_count);
  }
};

// Histogram: photon counts per energy bin (log-spaced).
class HistogramRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "histogram"; }

  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams& params) const override {
    int64_t bins = params.GetInt("bins", 64);
    if (bins <= 0 || bins > 100000) {
      return Status::InvalidArgument("bins out of range");
    }
    rhessi::PhotonList selected = Window(photons, params);
    double e0 = std::max(params.GetDouble("e_min", rhessi::kMinEnergyKev),
                         rhessi::kMinEnergyKev);
    double e1 = params.GetDouble("e_max", rhessi::kMaxEnergyKev);
    double log_lo = std::log(e0);
    double log_hi = std::log(e1);
    Series series;
    series.x.resize(bins);
    series.y.assign(bins, 0.0);
    for (int64_t i = 0; i < bins; ++i) {
      series.x[i] = std::exp(log_lo + (log_hi - log_lo) *
                                          (static_cast<double>(i) + 0.5) /
                                          static_cast<double>(bins));
    }
    for (const rhessi::PhotonEvent& p : selected) {
      double le = std::log(std::max<double>(p.energy_kev, e0));
      int64_t b = static_cast<int64_t>((le - log_lo) / (log_hi - log_lo) *
                                       static_cast<double>(bins));
      b = std::clamp<int64_t>(b, 0, bins - 1);
      series.y[b] += 1.0;
    }
    AnalysisProduct product;
    product.routine = name();
    product.rendered = RenderSeries(series);
    product.metadata["photons"] = std::to_string(selected.size());
    product.metadata["bins"] = std::to_string(bins);
    product.series = std::move(series);
    product.log = StrFormat("histogram over %zu photons", selected.size());
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams&) const override {
    return static_cast<double>(photon_count);
  }
};

// Spectrogram: 2-D counts over time x energy.
class SpectrogramRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "spectrogram"; }

  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams& params) const override {
    int64_t t_bins = params.GetInt("t_bins", 128);
    int64_t e_bins = params.GetInt("e_bins", 64);
    if (t_bins <= 0 || e_bins <= 0 || t_bins * e_bins > 64 * 1024 * 1024) {
      return Status::InvalidArgument("spectrogram bins out of range");
    }
    rhessi::PhotonList selected = Window(photons, params);
    AnalysisProduct product;
    product.routine = name();
    Image image;
    image.width = static_cast<size_t>(t_bins);
    image.height = static_cast<size_t>(e_bins);
    image.pixels.assign(image.width * image.height, 0.0);
    if (!selected.empty()) {
      double t0 = selected.front().time_sec;
      double t1 = selected.back().time_sec + 1e-9;
      double log_lo = std::log(rhessi::kMinEnergyKev);
      double log_hi = std::log(rhessi::kMaxEnergyKev);
      for (const rhessi::PhotonEvent& p : selected) {
        size_t bx = std::min(
            static_cast<size_t>((p.time_sec - t0) / (t1 - t0) *
                                static_cast<double>(t_bins)),
            image.width - 1);
        double le = std::log(std::max<double>(p.energy_kev,
                                              rhessi::kMinEnergyKev));
        size_t by = std::min(
            static_cast<size_t>((le - log_lo) / (log_hi - log_lo) *
                                static_cast<double>(e_bins)),
            image.height - 1);
        image.pixels[by * image.width + bx] += 1.0;
      }
    }
    product.rendered = RenderImage(image);
    product.metadata["photons"] = std::to_string(selected.size());
    product.image = std::move(image);
    product.log = StrFormat("spectrogram over %zu photons", selected.size());
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams& params) const override {
    return static_cast<double>(photon_count) +
           static_cast<double>(params.GetInt("t_bins", 128) *
                               params.GetInt("e_bins", 64));
  }
};

// Imaging: back-projection through the rotating modulation collimators.
// Each photon's arrival is correlated with the collimator's modulation
// pattern at its arrival phase; accumulating the pattern over the image
// plane reconstructs the source. O(photons x pixels) - the CPU-bound
// workload of §8.2 (the computation of an image took 20-60 s).
class ImagingRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "imaging"; }

  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams& params) const override {
    int64_t npix = params.GetInt("pixels", 64);
    if (npix <= 0 || npix > 2048) {
      return Status::InvalidArgument("pixels out of range");
    }
    rhessi::PhotonList selected = Window(photons, params);
    double fov = params.GetDouble("fov_arcsec", 128.0);

    Image image;
    image.width = static_cast<size_t>(npix);
    image.height = static_cast<size_t>(npix);
    image.pixels.assign(image.width * image.height, 0.0);

    // Per-collimator angular pitch: collimator c resolves scales
    // ~ 2.3 * 3^(c/2) arcsec (RHESSI's geometric progression).
    double pitch[rhessi::kNumCollimators];
    for (int c = 0; c < rhessi::kNumCollimators; ++c) {
      pitch[c] = 2.3 * std::pow(3.0, static_cast<double>(c) / 2.0);
    }

    double half = fov / 2.0;
    double pix_size = fov / static_cast<double>(npix);
    for (const rhessi::PhotonEvent& p : selected) {
      // Spin phase at arrival and the collimator's modulation direction.
      double phase = 2.0 * M_PI *
                     std::fmod(p.time_sec, rhessi::kSpinPeriodSec) /
                     rhessi::kSpinPeriodSec;
      double cos_a = std::cos(phase);
      double sin_a = std::sin(phase);
      double k = 2.0 * M_PI / pitch[p.detector % rhessi::kNumCollimators];
      // Accumulate the modulation pattern over the image plane.
      for (size_t y = 0; y < image.height; ++y) {
        double sky_y = -half + (static_cast<double>(y) + 0.5) * pix_size;
        double* row = image.pixels.data() + y * image.width;
        for (size_t x = 0; x < image.width; ++x) {
          double sky_x = -half + (static_cast<double>(x) + 0.5) * pix_size;
          double projection = sky_x * cos_a + sky_y * sin_a;
          row[x] += 0.5 * (1.0 + std::cos(k * projection));
        }
      }
    }

    AnalysisProduct product;
    product.routine = name();
    product.rendered = RenderImage(image);
    product.metadata["photons"] = std::to_string(selected.size());
    product.metadata["pixels"] = std::to_string(npix);
    product.metadata["peak"] = StrFormat("%.6g", image.MaxPixel());
    product.image = std::move(image);
    product.log = StrFormat("back-projection of %zu photons onto %lldx%lld",
                            selected.size(), static_cast<long long>(npix),
                            static_cast<long long>(npix));
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams& params) const override {
    int64_t npix = params.GetInt("pixels", 64);
    return static_cast<double>(photon_count) *
           static_cast<double>(npix * npix);
  }
};

}  // namespace

rhessi::PhotonList CutToTimeWindow(const rhessi::PhotonList& sorted,
                                   const AnalysisParams& params) {
  auto before = [](const rhessi::PhotonEvent& p, double t) {
    return p.time_sec < t;
  };
  auto first = std::lower_bound(sorted.begin(), sorted.end(),
                                WindowStart(params), before);
  auto last =
      std::lower_bound(first, sorted.end(), WindowEnd(params), before);
  return rhessi::PhotonList(first, last);
}

std::unique_ptr<RoutineRegistry> CreateStandardRegistry() {
  auto registry = std::make_unique<RoutineRegistry>();
  registry->Register(std::make_unique<LightcurveRoutine>());
  registry->Register(std::make_unique<HistogramRoutine>());
  registry->Register(std::make_unique<SpectrogramRoutine>());
  registry->Register(std::make_unique<ImagingRoutine>());
  return registry;
}

}  // namespace hedc::analysis
