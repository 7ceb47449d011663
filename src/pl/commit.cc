#include "pl/commit.h"

#include "core/strings.h"

namespace hedc::pl {

Frontend::Committer MakeDmCommitter(dm::DataManager* dm,
                                    dm::Session session,
                                    int64_t image_archive_id) {
  return [dm, session, image_archive_id](
             const ProcessingRequest& request,
             const analysis::AnalysisProduct& product) -> Result<int64_t> {
    dm::AnaRecord record;
    record.hle_id = request.hle_id;
    // Committed results become part of the shared repository so other
    // users find them instead of recomputing (§3.5).
    record.is_public = true;
    record.routine = request.routine;
    record.parameters = request.params.Canonical();
    record.status = "done";
    record.t_start = request.params.GetDouble("t_start", 0);
    record.t_end = request.params.GetDouble("t_end", 0);
    record.e_min = request.params.GetDouble("e_min", 0);
    record.e_max = request.params.GetDouble("e_max", 0);
    record.pixels = request.params.GetInt("pixels", 0);
    // Lineage: the calibration version of the photons analysed.
    if (request.input_units.size() == 1) {
      record.calibration_version = request.input_units[0].calibration_version;
    }
    auto photons_it = product.metadata.find("photons");
    if (photons_it != product.metadata.end()) {
      int64_t n = 0;
      ParseInt64(photons_it->second, &n);
      record.photon_count = n;
    }
    record.image_bytes = static_cast<int64_t>(product.rendered.size());
    record.log_excerpt = product.log;
    HEDC_ASSIGN_OR_RETURN(int64_t ana_id,
                          dm->semantics().CreateAna(session, record));
    // The image file lives in the archive, referenced via the location
    // tables; ANA ids get their own item-id space offset to avoid
    // colliding with raw-unit item ids.
    if (!product.rendered.empty()) {
      int64_t item_id = 2000000000 + ana_id;
      HEDC_RETURN_IF_ERROR(dm->io().WriteItemFile(
          item_id, image_archive_id, "ana", product.rendered));
    }
    return ana_id;
  };
}

}  // namespace hedc::pl
