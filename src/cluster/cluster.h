// Cluster runner: N DM nodes + routed dispatch in one process group (§7).
//
// The paper's scalability claim — middle-tier throughput grows by
// replicating DM nodes against a shared DBMS — stays a model until real
// nodes can be booted, routed to, killed and restarted. ClusterRunner
// does exactly that: it boots N ClusterNodes (each a full DM stack behind
// a TcpRmiServer on an ephemeral loopback port), registers them in a
// MembershipRegistry, and routes session keys to nodes through a
// SessionRouter (least_loaded or consistent_hash; see routing.h). Every
// node is served by the runner's one reactor, so N nodes in one process
// share that reactor's threads (one per core, any of which serves any
// node's connection) and the host's cores.
//
// Two dispatch paths ride on top:
//  * RouteInProcess — the web tier picks the DataManager a servlet runs
//    against (WebServer::set_node_router);
//  * RoutedDmPool — a client-side pool of TcpChannels wrapped in
//    ResilientChannels, one per primary node, with the router's fallback
//    order as the breaker's redirect list. Breaker transitions feed node
//    health back into the membership registry, so a node that dies under
//    load is routed around within one breaker trip and the keys it owned
//    move to its successors (and move back on restart).
//
// Failure semantics: KillNode stops a node's RMI server and marks it
// unhealthy (its state survives); RestartNode brings it back on a fresh
// ephemeral port and marks it healthy; RemoveNode forgets it entirely.
// Product-cache coherence: every node's recalibration/purge hooks
// broadcast invalidation across all nodes' caches, so a product cached
// via node A dies cluster-wide when a recalibration lands on node B.
#ifndef HEDC_CLUSTER_CLUSTER_H_
#define HEDC_CLUSTER_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "cluster/node.h"
#include "cluster/routing.h"
#include "core/config.h"
#include "dm/resilient_channel.h"
#include "net/reactor.h"

namespace hedc::cluster {

struct ClusterOptions {
  int nodes = 2;
  RoutingPolicy routing = RoutingPolicy::kLeastLoaded;
  int virtual_points = 64;
  NodeOptions node;

  // Reads cluster.nodes, cluster.routing, cluster.virtual_points and
  // cluster.wal_dir, plus the node RMI transport knobs (net.loops and
  // friends; see dm::TcpRmiServer::Options::FromConfig). Unknown routing
  // names fall back to least_loaded.
  static ClusterOptions FromConfig(const Config& config);
};

class ClusterRunner {
 public:
  explicit ClusterRunner(ClusterOptions options,
                         Clock* clock = RealClock::Instance(),
                         MetricsRegistry* metrics = nullptr);
  ~ClusterRunner();

  ClusterRunner(const ClusterRunner&) = delete;
  ClusterRunner& operator=(const ClusterRunner&) = delete;

  // Boots options.nodes nodes (named dm0, dm1, ...).
  Status Start();
  // Boots one more node and joins it; returns its node id.
  Result<int> AddNode();
  // Stops a node's RMI server and marks it unhealthy. Its database,
  // archive and cache survive for RestartNode.
  Status KillNode(int node_id);
  // Restarts a killed node on a fresh ephemeral port and marks it
  // healthy; its keys return (consistent_hash) or it becomes eligible
  // again (least_loaded).
  Status RestartNode(int node_id);
  // Removes a node from membership permanently (stops it first).
  Status RemoveNode(int node_id);

  size_t num_nodes() const;
  ClusterNode* node(int node_id);
  MembershipRegistry& membership() { return membership_; }
  SessionRouter& router() { return *router_; }
  Clock* clock() { return clock_; }
  const ClusterOptions& options() const { return options_; }

  // In-process dispatch for the web tier: the DataManager that owns
  // `session_key`. Bumps cluster.routed.<node> in the runner's registry.
  Result<dm::DataManager*> RouteInProcess(const std::string& session_key);

 private:
  Result<int> BootOneLocked();
  void WireInvalidationBroadcast(ClusterNode* node);

  ClusterOptions options_;
  Clock* clock_;
  MetricsRegistry* metrics_;
  // One reactor serving every node's RMI port. Declared before nodes_
  // so it outlives them (each node's Stop drains its listener from this
  // reactor).
  std::unique_ptr<net::Reactor> shared_reactor_;
  MembershipRegistry membership_;
  std::unique_ptr<SessionRouter> router_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;  // index == node_id
};

// Client-side routed dispatch over real TCP with ordered failover; one
// instance per client thread (calls through one entry serialize on its
// socket). Entries rebuild lazily when the membership epoch moves, so a
// restarted node's new port is picked up without explicit notification.
class RoutedDmPool {
 public:
  struct Options {
    dm::ResilientChannel::Options channel;
    Micros recv_timeout = 2 * kMicrosPerSecond;
    // Chaos seam: wraps each freshly built TcpChannel (e.g. in a
    // ChaosChannel) before the ResilientChannel sees it.
    std::function<std::unique_ptr<dm::ByteChannel>(
        const NodeInfo& node, std::unique_ptr<dm::ByteChannel> inner)>
        decorate;
    int64_t trace_id = 0;
  };

  RoutedDmPool(MembershipRegistry* membership, SessionRouter* router,
               Clock* clock, Options options,
               MetricsRegistry* metrics = nullptr);
  ~RoutedDmPool();

  // Executes on the node that owns `session_key`, failing over along the
  // router's fallback order when its breaker is open.
  Result<db::ResultSet> Execute(const std::string& session_key,
                                const std::string& sql,
                                const std::vector<db::Value>& params);

  // Aggregated over every entry this pool ever built.
  dm::ResilientChannel::Stats stats() const;

 private:
  struct Entry {
    int64_t epoch = -1;
    std::vector<std::unique_ptr<dm::ByteChannel>> channels;  // primary first
    std::unique_ptr<dm::ResilientChannel> resilient;
    std::unique_ptr<dm::RemoteDm> remote;
  };

  // Builds/rebuilds the entry for `primary` at the current epoch.
  Entry* EntryForLocked(const NodeInfo& primary);

  MembershipRegistry* membership_;
  SessionRouter* router_;
  Clock* clock_;
  Options options_;
  MetricsRegistry* metrics_;

  mutable std::mutex mu_;
  std::map<int, Entry> entries_;
  dm::ResilientChannel::Stats retired_;  // from removed entries
};

}  // namespace hedc::cluster

#endif  // HEDC_CLUSTER_CLUSTER_H_
