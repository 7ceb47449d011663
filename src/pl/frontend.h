// PL front end (§5.1): primary controller of sessions and requests,
// dispatch and priority scheduling onto IDL server managers; global
// directory of processing services; duration predictor for the
// estimation phase.
//
// Every request follows the 4-phase workflow:
//   Estimation (optional, returns immediately with an execution plan) ->
//   Execution (sync or async) -> Delivery -> Commit (write-back via DM).
// Phases execute in order; a request can be cancelled at any time and
// induces cleanup for the current phase.
#ifndef HEDC_PL_FRONTEND_H_
#define HEDC_PL_FRONTEND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "core/metrics.h"
#include "core/status.h"
#include "pl/product_cache.h"
#include "pl/server_manager.h"

namespace hedc::pl {

// Global directory (§5.1): "a directory of all services related to the
// processing logic. There is one instance of this service."
class GlobalDirectory {
 public:
  struct Entry {
    std::string name;
    IdlServerManager* manager = nullptr;
    std::string location;  // host:port style label
    bool online = true;
  };

  void Register(const std::string& name, IdlServerManager* manager,
                const std::string& location);
  Status SetOnline(const std::string& name, bool online);
  // All online managers.
  std::vector<IdlServerManager*> OnlineManagers() const;
  std::vector<Entry> List() const;

 private:
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

// Per-routine throughput model: EWMA of observed work-units/second,
// seeded by a default rate. Drives the estimation phase ("We use a
// simple predictor to inform the user about the duration of the
// subsequent execution phase").
class DurationPredictor {
 public:
  explicit DurationPredictor(double default_units_per_second = 1e6,
                             double alpha = 0.3)
      : default_rate_(default_units_per_second), alpha_(alpha) {}

  double PredictSeconds(const std::string& routine, double work_units) const;
  void Observe(const std::string& routine, double work_units,
               double seconds);

 private:
  double default_rate_;
  double alpha_;
  mutable std::mutex mu_;
  std::map<std::string, double> rates_;  // units/second
};

enum class RequestState {
  kQueued,
  kEstimated,
  kExecuting,
  kDelivered,
  kCommitted,
  kFailed,
  kCancelled,
};

const char* RequestStateName(RequestState state);

struct ProcessingRequest {
  int64_t request_id = 0;
  // Request-tracing id carried through all four phases; Submit defaults it
  // to the request id when the caller leaves it 0.
  int64_t trace_id = 0;
  int priority = 0;  // higher runs first
  int64_t hle_id = 0;
  std::string routine;
  analysis::AnalysisParams params;
  rhessi::PhotonList photons;
  // Lineage of `photons`: the raw units (and calibration versions) they
  // were derived from. Feeds the product-cache key; leave empty to opt the
  // request out of caching (no lineage -> not content-addressable).
  std::vector<InputUnit> input_units;
  bool skip_estimation = false;
  bool skip_commit = false;
};

struct RequestOutcome {
  RequestState state = RequestState::kQueued;
  bool terminal = false;  // no further transitions will occur
  Status status;
  analysis::AnalysisProduct product;
  double predicted_seconds = 0;
  Micros submitted_at = 0;
  Micros started_at = 0;
  Micros finished_at = 0;
  int64_t committed_ana_id = 0;
};

class Frontend {
 public:
  // The commit phase delegate: persists the product (ANA tuple + image
  // file) and returns the new ana id. Wired to the DM by the caller.
  using Committer = std::function<Result<int64_t>(
      const ProcessingRequest&, const analysis::AnalysisProduct&)>;

  struct Options {
    size_t dispatcher_threads = 2;
    size_t max_queue = 1024;
  };

  Frontend(GlobalDirectory* directory, DurationPredictor* predictor,
           Clock* clock, Committer committer, Options options);
  ~Frontend();

  // Estimation phase, standalone: returns the predicted execution
  // seconds without running anything ("This phase returns immediately").
  Result<double> Estimate(const ProcessingRequest& request);

  // Enqueues a request (estimation folded in unless skipped); returns the
  // request id.
  Result<int64_t> Submit(ProcessingRequest request);

  // Blocks until the request reaches a terminal state.
  RequestOutcome Wait(int64_t request_id);

  // Cancels a queued request (an executing one completes its phase and
  // is then discarded before commit).
  Status Cancel(int64_t request_id);

  // Snapshot of a request's current state.
  Result<RequestState> GetState(int64_t request_id) const;

  // Attaches the derived-product cache (borrowed; may be null to run
  // uncached). Setup-time call: must happen before the first Submit.
  void set_product_cache(ProductCache* cache) { product_cache_ = cache; }
  // The attached cache (null when uncached) — servlets reuse it for
  // per-resolution view prefixes.
  ProductCache* product_cache() const { return product_cache_; }

  int64_t completed() const { return completed_; }

 private:
  struct Slot {
    ProcessingRequest request;
    RequestOutcome outcome;
    ProductCacheKey cache_key;  // computed once at Submit
    bool cancel_requested = false;
  };

  void DispatcherLoop();
  // Pops the highest-priority queued request (FIFO within a priority).
  int64_t PopNext();
  // Makes the request terminal and releases its inputs (photons,
  // input_units); the outcome stays for Wait and GetState.
  void Finish(Slot* slot, RequestState state, Status status);
  // Delivery + commit for a request satisfied from the product cache (a
  // direct hit or a coalesced follower): decode, honour cancellation,
  // reuse the shared ana id or run this request's own commit.
  void ServeCached(Slot* slot, ProductCache::CachedProduct cached);

  GlobalDirectory* directory_;
  DurationPredictor* predictor_;
  Clock* clock_;
  Committer committer_;
  Options options_;
  ProductCache* product_cache_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable done_cv_;
  std::map<int64_t, std::unique_ptr<Slot>> slots_;
  std::deque<int64_t> queue_;
  bool shutdown_ = false;
  int64_t next_request_id_ = 1;
  int64_t completed_ = 0;
  std::vector<std::thread> dispatchers_;
  std::atomic<size_t> dispatch_counter_{0};

  // pl.* metrics: per-phase latencies, request outcomes, queue depth.
  Histogram* estimate_us_;
  Histogram* execute_us_;
  Histogram* deliver_us_;
  Histogram* commit_us_;
  Counter* submitted_;
  Counter* completed_counter_;
  Counter* failed_;
  Counter* cancelled_;
  Gauge* queue_depth_;
  // Photons held by requests that have not reached a terminal state.
  Gauge* retained_photons_;
};

}  // namespace hedc::pl

#endif  // HEDC_PL_FRONTEND_H_
