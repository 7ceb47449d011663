// The DM semantic layer (§5.2): services over entities.
//
// "It enforces access rules, ensures referential consistency, and
// determines data dependencies. ... This layer ensures that all images
// produced during an analysis are properly referenced in the system."
// Access control follows §5.5: derived data is private to its owner until
// flagged public; the user id is appended to all queries.
#ifndef HEDC_DM_SEMANTIC_LAYER_H_
#define HEDC_DM_SEMANTIC_LAYER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/ids.h"
#include "core/status.h"
#include "dm/io_layer.h"
#include "dm/session.h"

namespace hedc::dm {

// High-level event: "an observation period that has some meaning to a
// particular user" (§3.3). No fixed event types — event_type is a label.
struct HleRecord {
  int64_t hle_id = 0;
  int64_t owner_id = 0;
  bool is_public = false;
  std::string event_type;  // free-form: "flare", "grb", "quiet", ...
  double t_start = 0;
  double t_end = 0;
  double e_min = 0;
  double e_max = 0;
  double peak_rate = 0;
  double peak_energy = 0;
  int64_t photon_count = 0;
  int64_t unit_id = 0;      // raw data unit the event was found in
  int calibration_version = 1;
  int version = 1;
  int64_t superseded_by = 0;  // versioning: newer HLE id, 0 = current
  std::string label;
  std::string notes;
  double created_time = 0;
  std::string source;       // "auto-detect", "user", "import"
  double quality = 0;
};

// One analysis run attached to an HLE.
struct AnaRecord {
  int64_t ana_id = 0;
  int64_t hle_id = 0;
  int64_t owner_id = 0;
  bool is_public = false;
  std::string routine;      // registry name, e.g. "imaging"
  std::string parameters;   // canonical parameter string
  int64_t param_hash = 0;
  std::string status;       // "done", "failed", "running"
  double quality = 0;
  double t_start = 0;
  double t_end = 0;
  double e_min = 0;
  double e_max = 0;
  int64_t photon_count = 0;
  int64_t image_bytes = 0;
  std::string log_excerpt;
  int calibration_version = 1;
  int version = 1;
  int64_t superseded_by = 0;
  double created_time = 0;
  double duration_ms = 0;
  double peak_value = 0;
  int64_t pixels = 0;
  std::string notes;
};

struct CatalogRecord {
  int64_t catalog_id = 0;
  int64_t owner_id = 0;
  bool is_public = false;
  std::string name;
  std::string description;
  double created_time = 0;
};

class SemanticLayer {
 public:
  SemanticLayer(IoLayer* io, Clock* clock);

  // --- HLE -----------------------------------------------------------
  // Inserts; assigns hle_id. Owner comes from the session.
  Result<int64_t> CreateHle(const Session& session, HleRecord record);
  Result<HleRecord> GetHle(const Session& session, int64_t hle_id);
  // Time-range listing scoped by the session view.
  Result<std::vector<HleRecord>> ListHles(const Session& session,
                                          double t_lo, double t_hi,
                                          int64_t limit = -1);
  Status SetHlePublic(const Session& session, int64_t hle_id, bool value);
  // Integrity: refuses while analyses reference the HLE.
  Status DeleteHle(const Session& session, int64_t hle_id);
  // Versioning (§3.1): inserts the new record and marks the old one
  // superseded; both remain queryable.
  Result<int64_t> SupersedeHle(const Session& session, int64_t old_hle_id,
                               HleRecord new_record);

  // --- ANA -----------------------------------------------------------
  // Inserts the analysis tuple and its lineage record in one transaction.
  Result<int64_t> CreateAna(const Session& session, AnaRecord record);
  Result<AnaRecord> GetAna(const Session& session, int64_t ana_id);
  Result<std::vector<AnaRecord>> ListAnalyses(const Session& session,
                                              int64_t hle_id);
  Status SetAnaPublic(const Session& session, int64_t ana_id, bool value);
  Status DeleteAna(const Session& session, int64_t ana_id);

  // Redundant-work detection (§3.5): an existing, visible analysis of
  // the same routine+parameters on the same HLE.
  Result<std::optional<AnaRecord>> FindExistingAnalysis(
      const Session& session, int64_t hle_id, const std::string& routine,
      const std::string& canonical_params);

  // --- catalogs --------------------------------------------------------
  Result<int64_t> CreateCatalog(const Session& session, std::string name,
                                std::string description, bool is_public);
  Result<CatalogRecord> GetCatalogByName(const Session& session,
                                         const std::string& name);
  // Membership requires the HLE to exist and be visible to the session.
  Status AddToCatalog(const Session& session, int64_t catalog_id,
                      int64_t hle_id);
  Result<std::vector<int64_t>> ListCatalogHles(const Session& session,
                                               int64_t catalog_id);
  // Catalog entries of `hle_id` whose catalog is visible to the session
  // (public, its own, or super), by the rule GetCatalogByName applies.
  Result<int64_t> CountVisibleCatalogEntries(const Session& session,
                                             int64_t hle_id);

  // Lineage helper used by processes and the PL commit phase.
  Status RecordLineage(int64_t item_id, int64_t source_item_id,
                       const std::string& operation, int calibration_version,
                       const std::string& parameters);
  Result<std::vector<int64_t>> LineageSources(int64_t item_id);

  IoLayer* io() { return io_; }

  // Parameter hash used for overlap detection.
  static int64_t HashParams(const std::string& routine,
                            const std::string& canonical_params);

 private:
  // Visibility predicate: owner, public flag, super user.
  static bool Visible(const Session& session, int64_t owner_id,
                      bool is_public);
  static Status RequireOwnership(const Session& session, int64_t owner_id);

  double NowSeconds() const;

  IoLayer* io_;
  Clock* clock_;
  IdGenerator hle_ids_{1};
  IdGenerator ana_ids_{1};
  IdGenerator catalog_ids_{1};
  IdGenerator member_ids_{1};
  IdGenerator lineage_ids_{1};
};

}  // namespace hedc::dm

#endif  // HEDC_DM_SEMANTIC_LAYER_H_
