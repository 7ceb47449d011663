// Web tier: servlets + dispatch (§6.1).
//
// "The basic interface to HEDC is through a Web browser. The pages needed
// for this purpose are generated by the DM component. ... A request to
// display an HLE, e.g., involves loading and filling in HLE header/footer
// templates and an analysis template for each ANA tuple associated with
// that HLE. For such a request, the DM issues on average seven database
// queries."
#ifndef HEDC_WEB_WEB_SERVER_H_
#define HEDC_WEB_WEB_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "dm/dm.h"
#include "pl/frontend.h"
#include "web/http.h"
#include "web/template.h"

namespace hedc::web {

class WebServer;

// A servlet handles one path. It receives the DM node chosen by the
// request router (call redirection, §5.4).
class Servlet {
 public:
  virtual ~Servlet() = default;
  virtual HttpResponse Handle(const HttpRequest& request,
                              dm::DataManager* dm, WebServer* server) = 0;
};

class WebServer {
 public:
  // `dm` is the primary DM node; `frontend` (nullable) enables the
  // analysis-submit path.
  WebServer(dm::DataManager* dm, pl::Frontend* frontend);

  // Registers the standard servlet set: /login, /logout, /catalog, /hle,
  // /ana, /image, /analyze, /explore, /query, /status, /metrics, /view,
  // /approx. Compiles every page template first; a template that does not
  // compile fails the call and registers nothing.
  Status RegisterStandardServlets();
  // Resolves the path's web.requests / web.latency_us metrics here, so
  // Dispatch takes no registry lock for them.
  void Register(const std::string& path, std::unique_ptr<Servlet> servlet);

  // Routes to a DM node (self or peer), resolves the user session, and
  // dispatches.
  HttpResponse Dispatch(const HttpRequest& request);

  // Progressive-delivery and approximate-aggregate knobs (the wavelet.*
  // and approx.* config sections; see README).
  struct DeliveryOptions {
    // Resolution served by /view when the request names none; -1 = the
    // full-fidelity stream.
    int64_t default_view_resolution = -1;
    bool approx_enabled = true;
    // Resolution /approx reads when the request names none: coarse
    // prefixes answer dashboard aggregates within their error bars.
    int64_t approx_default_resolution = 3;
    // Reservoir capacity of the raw-photon sampling fallback.
    int64_t approx_reservoir_size = 256;

    // Reads wavelet.default_resolution, approx.enabled,
    // approx.resolution, approx.reservoir_size.
    static DeliveryOptions FromConfig(const Config& config);
  };
  void set_delivery_options(const DeliveryOptions& options) {
    delivery_ = options;
  }

  // --- used by servlets -------------------------------------------------
  pl::Frontend* frontend() { return frontend_; }
  const DeliveryOptions& delivery_options() const { return delivery_; }
  // Resolves the profile behind a session cookie (anonymous if absent).
  dm::UserProfile ProfileFor(const HttpRequest& request);
  // Issues a login token for an authenticated profile.
  std::string IssueToken(const dm::UserProfile& profile);
  void RevokeToken(const std::string& token);

  int64_t requests_served() const { return requests_served_; }

  // Usage statistics (operational schema section): every dispatched
  // request is recorded with user, operation and duration. A failed
  // record counts in web.usage_stats.failed.
  void set_usage_recording(bool enabled) { record_usage_ = enabled; }

  // Cluster dispatch: when set, picks the DM node each request executes
  // on (e.g. cluster::ClusterRunner::RouteInProcess keyed by the session
  // cookie) instead of the server's own DM node. Returning nullptr runs
  // the request on the server's own node. Set before serving traffic;
  // not synchronized against in-flight dispatches.
  using NodeRouter = std::function<dm::DataManager*(const HttpRequest&)>;
  void set_node_router(NodeRouter router) { node_router_ = std::move(router); }

 private:
  NodeRouter node_router_;
  dm::DataManager* dm_;
  pl::Frontend* frontend_;
  DeliveryOptions delivery_;
  struct Route {
    std::unique_ptr<Servlet> servlet;
    Counter* requests = nullptr;   // web.requests<path>
    Histogram* latency = nullptr;  // web.latency_us<path>
  };
  // web.status.<code>: the codes servlets answer with come from a table
  // resolved at construction, any other code from the registry.
  Counter* StatusCounter(int code);

  std::map<std::string, Route> servlets_;
  std::vector<std::pair<int, Counter*>> status_counters_;
  std::mutex token_mu_;
  std::map<std::string, dm::UserProfile> tokens_;
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> token_counter_{1};
  // Next usage_stats.stat_id; the constructor seeds it past MAX(stat_id).
  std::atomic<int64_t> stat_counter_{1};
  bool record_usage_ = true;
};

}  // namespace hedc::web

#endif  // HEDC_WEB_WEB_SERVER_H_
