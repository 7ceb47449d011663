// Analysis routine framework (stand-in for IDL + the Solar Software Tree).
//
// Routines are looked up by name in a registry, take a photon list and a
// string-keyed parameter map, and produce an AnalysisProduct. New routines
// — including user-submitted ones (§3.3) — are added by registering
// another implementation; nothing else in the system changes.
#ifndef HEDC_ANALYSIS_ROUTINE_H_
#define HEDC_ANALYSIS_ROUTINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/product.h"
#include "core/clock.h"
#include "core/status.h"
#include "rhessi/photon.h"

namespace hedc::analysis {

class AnalysisParams {
 public:
  AnalysisParams() = default;
  explicit AnalysisParams(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}

  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  void SetDouble(const std::string& key, double value);
  void SetInt(const std::string& key, int64_t value);

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;

  const std::map<std::string, std::string>& values() const { return values_; }

  // Canonical "k1=v1;k2=v2" form, stored in ANA tuples for overlap
  // detection (§3.5).
  std::string Canonical() const;

 private:
  std::map<std::string, std::string> values_;
};

class AnalysisRoutine {
 public:
  virtual ~AnalysisRoutine() = default;

  virtual std::string name() const = 0;

  virtual Result<AnalysisProduct> Run(const rhessi::PhotonList& photons,
                                      const AnalysisParams& params) const = 0;

  // Rough execution-time estimate for the PL's estimation phase (§5.1),
  // in abstract work units proportional to actual computation.
  virtual double EstimateWorkUnits(size_t photon_count,
                                   const AnalysisParams& params) const = 0;
};

class RoutineRegistry {
 public:
  // Registers a routine; replaces an existing routine of the same name
  // (routines "will constantly change", §3.1).
  void Register(std::unique_ptr<AnalysisRoutine> routine);

  const AnalysisRoutine* Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::unique_ptr<AnalysisRoutine>> routines_;
};

// The photons of a time-sorted list inside the window t_start <= t < t_end
// that every standard routine selects from `params`, found by two binary
// searches. Running a standard routine on the cut list gives the same
// product as running it on the whole list.
rhessi::PhotonList CutToTimeWindow(const rhessi::PhotonList& sorted,
                                   const AnalysisParams& params);

// Registry pre-loaded with the standard catalog: imaging, lightcurve,
// spectrogram, histogram.
std::unique_ptr<RoutineRegistry> CreateStandardRegistry();

}  // namespace hedc::analysis

#endif  // HEDC_ANALYSIS_ROUTINE_H_
