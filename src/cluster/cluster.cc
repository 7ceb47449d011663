#include "cluster/cluster.h"

#include <utility>

namespace hedc::cluster {

ClusterOptions ClusterOptions::FromConfig(const Config& config) {
  ClusterOptions out;
  out.nodes = static_cast<int>(config.GetInt("cluster.nodes", out.nodes));
  Result<RoutingPolicy> policy =
      ParseRoutingPolicy(config.GetString("cluster.routing", "least_loaded"));
  if (policy.ok()) out.routing = policy.value();
  out.virtual_points = static_cast<int>(
      config.GetInt("cluster.virtual_points", out.virtual_points));
  out.node.wal_dir = config.GetString("cluster.wal_dir", out.node.wal_dir);
  out.node.rmi = dm::TcpRmiServer::Options::FromConfig(config);
  return out;
}

ClusterRunner::ClusterRunner(ClusterOptions options, Clock* clock,
                             MetricsRegistry* metrics)
    : options_(std::move(options)),
      clock_(clock),
      metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
      membership_(metrics_) {
  // All nodes' RMI listeners share this reactor: O(loops) threads for the
  // whole cluster, however many nodes and channels exist.
  net::Reactor::Options reactor_options = options_.node.rmi.reactor;
  if (reactor_options.metrics == nullptr) reactor_options.metrics = metrics_;
  shared_reactor_ = std::make_unique<net::Reactor>(reactor_options);
  options_.node.rmi.shared_reactor = shared_reactor_.get();
  router_ = std::make_unique<SessionRouter>(&membership_, options_.routing,
                                            options_.virtual_points);
}

ClusterRunner::~ClusterRunner() {
  for (auto& node : nodes_) {
    if (node != nullptr) node->StopServing();
  }
}

Status ClusterRunner::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < options_.nodes; ++i) {
    HEDC_RETURN_IF_ERROR(BootOneLocked().status());
  }
  return Status::Ok();
}

Result<int> ClusterRunner::AddNode() {
  std::lock_guard<std::mutex> lock(mu_);
  return BootOneLocked();
}

Result<int> ClusterRunner::BootOneLocked() {
  std::string name = "dm" + std::to_string(nodes_.size());
  auto node = std::make_unique<ClusterNode>(name, options_.node, clock_);
  HEDC_RETURN_IF_ERROR(node->Boot());
  NodeInfo info;
  info.name = name;
  info.port = node->port();
  info.dm = node->dm();
  int id = membership_.Join(info);
  node->node_id = id;
  WireInvalidationBroadcast(node.get());
  // Invariant: node ids are assigned densely by join order and nodes are
  // never erased from nodes_ (RemoveNode only stops + leaves membership),
  // so nodes_[id] stays valid for the runner's lifetime.
  nodes_.push_back(std::move(node));
  return id;
}

void ClusterRunner::WireInvalidationBroadcast(ClusterNode* node) {
  // Snapshot the cache list outside any per-cache work so a broadcast
  // never holds the runner lock while touching cache internals (a node
  // being killed may be joining RMI threads that are mid-recalibration).
  auto snapshot_caches = [this] {
    std::vector<pl::ProductCache*> caches;
    std::lock_guard<std::mutex> lock(mu_);
    caches.reserve(nodes_.size());
    for (auto& n : nodes_) caches.push_back(n->product_cache());
    return caches;
  };
  node->process()->SetDerivedProductInvalidator(
      [snapshot_caches](int64_t unit_id) {
        for (pl::ProductCache* cache : snapshot_caches()) {
          cache->InvalidateUnit(unit_id);
        }
      });
  node->process()->SetAnaPurgeListener([snapshot_caches](int64_t ana_id) {
    for (pl::ProductCache* cache : snapshot_caches()) {
      cache->InvalidateAna(ana_id);
    }
  });
}

Status ClusterRunner::KillNode(int node_id) {
  ClusterNode* node = this->node(node_id);
  if (node == nullptr) {
    return Status::NotFound("no node " + std::to_string(node_id));
  }
  // Stop outside mu_: joining RMI threads can block on handlers that are
  // broadcasting cache invalidations, which briefly take mu_.
  node->StopServing();
  membership_.SetHealth(node_id, false);
  return Status::Ok();
}

Status ClusterRunner::RestartNode(int node_id) {
  ClusterNode* node = this->node(node_id);
  if (node == nullptr) {
    return Status::NotFound("no node " + std::to_string(node_id));
  }
  HEDC_RETURN_IF_ERROR(node->StartServing());
  membership_.UpdateAddress(node_id, node->port());
  membership_.SetHealth(node_id, true);
  return Status::Ok();
}

Status ClusterRunner::RemoveNode(int node_id) {
  ClusterNode* node = this->node(node_id);
  if (node == nullptr) {
    return Status::NotFound("no node " + std::to_string(node_id));
  }
  node->StopServing();
  if (!membership_.Leave(node_id)) {
    return Status::NotFound("node " + std::to_string(node_id) +
                            " not a member");
  }
  return Status::Ok();
}

size_t ClusterRunner::num_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

ClusterNode* ClusterRunner::node(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return nullptr;
  }
  return nodes_[node_id].get();
}

Result<dm::DataManager*> ClusterRunner::RouteInProcess(
    const std::string& session_key) {
  Result<NodeInfo> routed = router_->Route(session_key);
  HEDC_RETURN_IF_ERROR(routed.status());
  metrics_->GetCounter("cluster.routed." + routed.value().name)->Add();
  return routed.value().dm;
}

namespace {

void Accumulate(dm::ResilientChannel::Stats* into,
                const dm::ResilientChannel::Stats& from) {
  into->calls += from.calls;
  into->attempts += from.attempts;
  into->retries += from.retries;
  into->redirects += from.redirects;
  into->failures += from.failures;
  into->breaker_opens += from.breaker_opens;
  into->breaker_closes += from.breaker_closes;
  into->fallback_rotations += from.fallback_rotations;
}

}  // namespace

RoutedDmPool::RoutedDmPool(MembershipRegistry* membership,
                           SessionRouter* router, Clock* clock,
                           Options options, MetricsRegistry* metrics)
    : membership_(membership),
      router_(router),
      clock_(clock),
      options_(std::move(options)),
      metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()) {}

RoutedDmPool::~RoutedDmPool() = default;

RoutedDmPool::Entry* RoutedDmPool::EntryForLocked(const NodeInfo& primary) {
  int64_t epoch = membership_->epoch();
  Entry& entry = entries_[primary.node_id];
  if (entry.epoch == epoch) return &entry;
  if (entry.resilient != nullptr) {
    Accumulate(&retired_, entry.resilient->stats());
  }
  entry = Entry{};
  entry.epoch = epoch;

  auto build = [this](const NodeInfo& node) -> std::unique_ptr<dm::ByteChannel> {
    std::unique_ptr<dm::ByteChannel> channel = std::make_unique<dm::TcpChannel>(
        "127.0.0.1", node.port, options_.recv_timeout);
    if (options_.decorate) channel = options_.decorate(node, std::move(channel));
    return channel;
  };
  entry.channels.push_back(build(primary));
  std::vector<dm::ByteChannel*> fallbacks;
  for (const NodeInfo& fb : router_->FallbackOrder(primary.node_id)) {
    entry.channels.push_back(build(fb));
    fallbacks.push_back(entry.channels.back().get());
  }

  dm::ResilientChannel::Options channel_options = options_.channel;
  // Breaker transitions feed node health: tripping open against the
  // primary marks it down in the membership registry (routing keys away
  // from it) and a reclose marks it back up. Chained after any caller-
  // supplied callback.
  auto user_callback = channel_options.on_state_change;
  int node_id = primary.node_id;
  MembershipRegistry* membership = membership_;
  channel_options.on_state_change =
      [user_callback, membership,
       node_id](dm::ResilientChannel::BreakerState state) {
        if (user_callback) user_callback(state);
        if (state == dm::ResilientChannel::BreakerState::kOpen) {
          membership->SetHealth(node_id, false);
        } else if (state == dm::ResilientChannel::BreakerState::kClosed) {
          membership->SetHealth(node_id, true);
        }
      };
  entry.resilient = std::make_unique<dm::ResilientChannel>(
      entry.channels.front().get(), std::move(fallbacks), clock_,
      channel_options, metrics_);
  entry.remote = std::make_unique<dm::RemoteDm>(entry.resilient.get(), metrics_);
  entry.remote->set_trace_id(options_.trace_id);
  return &entry;
}

Result<db::ResultSet> RoutedDmPool::Execute(
    const std::string& session_key, const std::string& sql,
    const std::vector<db::Value>& params) {
  Result<NodeInfo> routed = router_->Route(session_key);
  HEDC_RETURN_IF_ERROR(routed.status());
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = EntryForLocked(routed.value());
  return entry->remote->Execute(sql, params);
}

dm::ResilientChannel::Stats RoutedDmPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  dm::ResilientChannel::Stats out = retired_;
  for (const auto& [id, entry] : entries_) {
    if (entry.resilient != nullptr) Accumulate(&out, entry.resilient->stats());
  }
  return out;
}

}  // namespace hedc::cluster
