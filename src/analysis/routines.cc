// Standard analysis routines: imaging (back-projection), lightcurve,
// spectrogram, histogram.
#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/energy_bin_memo.h"
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

// The most cells a routine's series or pixel plane may have (64 Mi).
constexpr int64_t kMaxCells = int64_t{64} << 20;

double WindowStart(const AnalysisParams& params) {
  return params.GetDouble("t_start", 0);
}

double WindowEnd(const AnalysisParams& params) {
  return params.GetDouble("t_end", 1e18);
}

// The time/energy window every standard routine selects from `params`.
// Routines test each photon in place instead of copying the selection.
class Window {
 public:
  explicit Window(const AnalysisParams& params)
      : t0_(WindowStart(params)),
        t1_(WindowEnd(params)),
        e0_(params.GetDouble("e_min", rhessi::kMinEnergyKev)),
        e1_(params.GetDouble("e_max", rhessi::kMaxEnergyKev)) {}

  bool Contains(const rhessi::PhotonEvent& p) const {
    return p.time_sec >= t0_ && p.time_sec < t1_ && p.energy_kev >= e0_ &&
           p.energy_kev < e1_;
  }

  // The first and last selected photons in list order (the earliest and
  // latest of a time-sorted list); both null when none is selected.
  std::pair<const rhessi::PhotonEvent*, const rhessi::PhotonEvent*> Ends(
      const rhessi::PhotonList& photons) const {
    auto first = std::find_if(photons.begin(), photons.end(),
                              [this](const auto& p) { return Contains(p); });
    if (first == photons.end()) return {nullptr, nullptr};
    auto last = std::find_if(photons.rbegin(), photons.rend(),
                             [this](const auto& p) { return Contains(p); });
    return {&*first, &*last};
  }

 private:
  double t0_, t1_, e0_, e1_;
};

// Lightcurve: photon counts per time bin.
class LightcurveRoutine : public AnalysisRoutine {
 public:
  std::string name() const override { return "lightcurve"; }

  Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                              const AnalysisParams& params) const override {
    double bin = params.GetDouble("bin_sec", 1.0);
    if (!(bin > 0)) return Status::InvalidArgument("bin_sec must be positive");
    const Window window(params);
    auto [first, last] = window.Ends(photons);
    AnalysisProduct product;
    product.routine = name();
    Series series;
    size_t selected = 0;
    if (first != nullptr) {
      double t0 = first->time_sec;
      double t1 = last->time_sec;
      // floor(span) + 1 bins, at most kMaxCells; also rejects a NaN span.
      double span = (t1 - t0) / bin;
      if (!(span < static_cast<double>(kMaxCells))) {
        return Status::InvalidArgument("lightcurve bins out of range");
      }
      size_t bins = static_cast<size_t>(span) + 1;
      series.x.resize(bins);
      series.y.assign(bins, 0.0);
      for (size_t i = 0; i < bins; ++i) {
        series.x[i] = t0 + static_cast<double>(i) * bin;
      }
      // Time-sorted photons fill one bin after another: count the open
      // bin in a register and add it to the series when the bin changes.
      size_t open = 0;
      uint64_t open_count = 0;
      for (const rhessi::PhotonEvent& p : photons) {
        if (!window.Contains(p)) continue;
        ++selected;
        size_t b = static_cast<size_t>((p.time_sec - t0) / bin);
        if (b >= bins) b = bins - 1;
        if (b != open) {
          series.y[open] += static_cast<double>(open_count);
          open = b;
          open_count = 0;
        }
        ++open_count;
      }
      series.y[open] += static_cast<double>(open_count);
    }
    product.rendered = RenderSeries(series);
    product.metadata["photons"] = std::to_string(selected);
    product.metadata["bin_sec"] = StrFormat("%.6g", bin);
    product.series = std::move(series);
    product.log = StrFormat("lightcurve over %zu photons", selected);
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
    const Window window(params);
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
    auto bin_of = [&](float energy) {
      double le = std::log(std::max<double>(energy, e0));
      int64_t b = static_cast<int64_t>((le - log_lo) / (log_hi - log_lo) *
                                       static_cast<double>(bins));
      return std::clamp<int64_t>(b, 0, bins - 1);
    };
    EnergyBinMemo memo;
    std::vector<uint64_t> counts(static_cast<size_t>(bins), 0);
    size_t selected = 0;
    for (const rhessi::PhotonEvent& p : photons) {
      if (!window.Contains(p)) continue;
      ++selected;
      ++counts[memo.Bin(p.energy_kev, bin_of)];
    }
    for (int64_t i = 0; i < bins; ++i) {
      series.y[i] = static_cast<double>(counts[i]);
    }
    AnalysisProduct product;
    product.routine = name();
    product.rendered = RenderSeries(series);
    product.metadata["photons"] = std::to_string(selected);
    product.metadata["bins"] = std::to_string(bins);
    product.series = std::move(series);
    product.log = StrFormat("histogram over %zu photons", selected);
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
    // Each factor is bounded first, so the product cannot overflow.
    if (t_bins <= 0 || e_bins <= 0 || t_bins > kMaxCells ||
        e_bins > kMaxCells || t_bins * e_bins > kMaxCells) {
      return Status::InvalidArgument("spectrogram bins out of range");
    }
    const Window window(params);
    auto [first, last] = window.Ends(photons);
    AnalysisProduct product;
    product.routine = name();
    Image image;
    image.width = static_cast<size_t>(t_bins);
    image.height = static_cast<size_t>(e_bins);
    image.pixels.assign(image.width * image.height, 0.0);
    size_t selected = 0;
    if (first != nullptr) {
      double t0 = first->time_sec;
      double t1 = last->time_sec + 1e-9;
      double log_lo = std::log(rhessi::kMinEnergyKev);
      double log_hi = std::log(rhessi::kMaxEnergyKev);
      auto bin_of = [&](float energy) {
        double le = std::log(std::max<double>(energy, rhessi::kMinEnergyKev));
        return std::min(static_cast<size_t>((le - log_lo) / (log_hi - log_lo) *
                                            static_cast<double>(e_bins)),
                        image.height - 1);
      };
      EnergyBinMemo memo;
      for (const rhessi::PhotonEvent& p : photons) {
        if (!window.Contains(p)) continue;
        ++selected;
        size_t bx = std::min(
            static_cast<size_t>((p.time_sec - t0) / (t1 - t0) *
                                static_cast<double>(t_bins)),
            image.width - 1);
        size_t by = memo.Bin(p.energy_kev, bin_of);
        image.pixels[by * image.width + bx] += 1.0;
      }
    }
    product.rendered = RenderImage(image);
    product.metadata["photons"] = std::to_string(selected);
    product.image = std::move(image);
    product.log = StrFormat("spectrogram over %zu photons", selected);
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams& params) const override {
    // In doubles: the bin counts are not validated yet and may overflow
    // an int64_t product.
    return static_cast<double>(photon_count) +
           static_cast<double>(params.GetInt("t_bins", 128)) *
               static_cast<double>(params.GetInt("e_bins", 64));
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
    const Window window(params);
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
    size_t selected = 0;
    for (const rhessi::PhotonEvent& p : photons) {
      if (!window.Contains(p)) continue;
      ++selected;
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
    product.metadata["photons"] = std::to_string(selected);
    product.metadata["pixels"] = std::to_string(npix);
    product.metadata["peak"] = StrFormat("%.6g", image.MaxPixel());
    product.image = std::move(image);
    product.log = StrFormat("back-projection of %zu photons onto %lldx%lld",
                            selected, static_cast<long long>(npix),
                            static_cast<long long>(npix));
    return product;
  }

  double EstimateWorkUnits(size_t photon_count,
                           const AnalysisParams& params) const override {
    // In doubles: `pixels` is not validated yet and may overflow int64_t.
    double npix = static_cast<double>(params.GetInt("pixels", 64));
    return static_cast<double>(photon_count) * (npix * npix);
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
