// StreamCorder: the fat Java client, in C++ (§6.2).
//
// "The StreamCorder architecture is similar to the one of the HEDC. The
// functionality is divided between basic services and dynamically
// loadable modules (or cordlets). ... every installation of the
// StreamCorder is, in fact, a clone of the HEDC server extended with a
// GUI and extra services." The GUI is out of scope; the data/control
// planes — caching, local DM/DB clone, progressive decode, local
// analysis, upload — are implemented.
#ifndef HEDC_CLIENT_STREAMCORDER_H_
#define HEDC_CLIENT_STREAMCORDER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/routine.h"
#include "client/cache.h"
#include "dm/dm.h"
#include "dm/process_layer.h"
#include "node/node.h"
#include "pl/product_cache.h"
#include "wavelet/codec.h"

namespace hedc::client {

// A dynamically loadable module. Modules are data-type sensitive: the
// StreamCorder picks modules by the context's data type.
class Cordlet {
 public:
  virtual ~Cordlet() = default;
  virtual std::string name() const = 0;
  // The data types this module handles ("hle", "ana", "view", ...).
  virtual std::vector<std::string> data_types() const = 0;
};

class StreamCorder {
 public:
  struct Options {
    // Cache strategy: v1 = path cache, v2 = local-DB cache.
    int cache_version = 2;
    uint64_t cache_capacity_bytes = 256 * 1024 * 1024;
    // Capacity of the local derived-product cache over the local DM
    // clone: repeated AnalyzeLocally calls for the same (routine, params,
    // unit@version) reuse the stored product instead of recomputing.
    uint64_t product_cache_capacity_bytes = 64 * 1024 * 1024;
  };

  // `server` is the HEDC server's DM this client talks to. The client
  // boots its own local clone, a hedc::Node.
  StreamCorder(dm::DataManager* server, dm::Session server_session,
               Options options);

  // --- core services ---------------------------------------------------
  // Fetches the raw unit file, through the cache.
  Result<std::vector<uint8_t>> FetchRawUnit(int64_t unit_id);

  // Fetches the wavelet view of a unit and reconstructs an approximation
  // from the first `fraction` of coefficients (progressive analysis &
  // visualization, §6.3). Cached like any large object.
  Result<std::vector<double>> FetchViewApproximation(int64_t unit_id,
                                                     double fraction);

  // One coarse-to-fine progressive delivery of a unit's view: fetches
  // the stored stream's resolution-level prefixes in order, decodes and
  // (optionally) renders each refinement, and reports first-paint vs
  // full-fidelity latency plus the bytes each resolution cost.
  // Instrumented as client.progressive.* (fetches, refinements, bytes
  // counters; first_paint_us / full_us histograms).
  struct ProgressiveView {
    std::vector<double> bins;        // finest reconstruction delivered
    size_t refinements = 0;          // prefixes decoded (levels with
                                     // no new coefficients are skipped)
    size_t levels = 0;               // resolution levels in the stream
    size_t first_paint_bytes = 0;    // coarsest prefix size
    size_t total_bytes = 0;          // cumulative prefix bytes fetched
    double first_paint_seconds = 0;  // wall time to the coarsest render
    double full_seconds = 0;         // wall time to the last refinement
    wavelet::PrefixInfo final_info;  // accounting of the final decode
  };
  using RefinementCallback =
      std::function<void(const std::vector<double>& bins, size_t level)>;
  Result<ProgressiveView> FetchViewProgressive(
      int64_t unit_id, const RefinementCallback& on_refinement = nullptr);

  // Runs an analysis locally on cached/downloaded data.
  Result<analysis::AnalysisProduct> AnalyzeLocally(
      int64_t unit_id, const std::string& routine,
      const analysis::AnalysisParams& params);

  // Uploads a locally produced result into the server as a new ANA on
  // `hle_id` ("New analysis results thus produced may be uploaded and
  // imported into the system", §1).
  Result<int64_t> UploadResult(int64_t hle_id,
                               const analysis::AnalysisProduct& product,
                               const analysis::AnalysisParams& params);

  // Mirrors an HLE's metadata into the local clone (offline work).
  Status MirrorHle(int64_t hle_id);

  // Full mirror (§1: advanced users "can create a local mirror copy of
  // the entire HEDC server, including data and functionality"): copies
  // every visible HLE, all raw-unit tuples and their files, and the
  // public catalogs into the local clone. Returns the number of HLEs
  // mirrored.
  Result<int64_t> MirrorRepository();
  // Reads a mirrored HLE from the local clone without server contact.
  Result<dm::HleRecord> LocalHle(int64_t hle_id);

  // --- peer-to-peer (§10) -------------------------------------------------
  // "As every StreamCorder is in reality a fully functional server,
  // requests may also be sent to peer clients to allow peer to peer
  // interaction." Peers' caches are consulted before the HEDC server.
  void AddPeer(StreamCorder* peer);
  // Serves an object from this client's cache only (no server fallback);
  // the endpoint peers call.
  Result<std::vector<uint8_t>> ServeFromCache(const ObjectAttributes& attrs);
  int64_t peer_fetches() const { return peer_fetches_; }

  // --- cordlets -----------------------------------------------------------
  void RegisterCordlet(std::unique_ptr<Cordlet> cordlet);
  // Modules applicable to a data-type context.
  std::vector<Cordlet*> ModulesFor(const std::string& data_type) const;

  ClientCache& cache() { return *cache_; }
  dm::DataManager& local_dm() { return *local_->dm(); }
  pl::ProductCache& product_cache() { return *local_->product_cache(); }

  int64_t server_fetches() const { return server_fetches_; }

 private:
  // Resolves a unit's calibration version from the local mirror or the
  // server tuple (-1 if neither knows the unit).
  int ResolveCalibrationVersion(int64_t unit_id);

  dm::DataManager* server_;
  dm::Session server_session_;
  Options options_;

  std::unique_ptr<Node> local_;  // the local clone
  dm::Session local_session_;

  std::unique_ptr<ClientCache> cache_;
  std::unique_ptr<analysis::RoutineRegistry> registry_;
  std::vector<std::unique_ptr<Cordlet>> cordlets_;
  std::vector<StreamCorder*> peers_;
  int64_t server_fetches_ = 0;
  int64_t peer_fetches_ = 0;
};

}  // namespace hedc::client

#endif  // HEDC_CLIENT_STREAMCORDER_H_
