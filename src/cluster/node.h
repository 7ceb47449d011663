// One DM node of a cluster (§5.2 component instances, §7 testbed nodes).
//
// ClusterNode bootstraps the full per-node stack — its own Database
// (optionally WAL-backed in a per-node directory), disk archive, name
// mapper, DataManager, ProcessLayer and derived-product cache — and
// serves it over a TcpRmiServer on an ephemeral loopback port that hands
// RMI frames straight to the node's RmiServer.
#ifndef HEDC_CLUSTER_NODE_H_
#define HEDC_CLUSTER_NODE_H_

#include <memory>
#include <string>

#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "db/database.h"
#include "dm/dm.h"
#include "dm/process_layer.h"
#include "dm/remote.h"
#include "dm/tcp_remote.h"
#include "pl/product_cache.h"

namespace hedc::cluster {

struct NodeOptions {
  // Per-node WAL directory; empty = in-memory only (tests/benches).
  std::string wal_dir;
  // RMI transport tuning. The cluster runner points rmi.shared_reactor
  // at its own reactor, so N nodes serve from one set of reactor threads
  // instead of N thread armies; rmi.reactor.loops sizes that set, which
  // bounds how many calls the whole cluster executes at once.
  dm::TcpRmiServer::Options rmi;
  dm::DataManager::Options dm;
  pl::ProductCache::Options cache;
};

class ClusterNode {
 public:
  ClusterNode(std::string name, NodeOptions options,
              Clock* clock = RealClock::Instance());
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  // Schema + archive + mapper + DM + PL + cache; then starts serving.
  Status Boot();
  // (Re)starts the TcpRmiServer on a fresh ephemeral port.
  Status StartServing();
  // Stops the TcpRmiServer; in-flight calls fail (clients observe a
  // reset). The node's state survives for a later StartServing().
  void StopServing();
  bool serving() const { return tcp_ != nullptr && tcp_->running(); }
  int port() const { return tcp_ != nullptr ? tcp_->port() : 0; }

  const std::string& name() const { return name_; }
  int node_id = -1;  // assigned by the runner's membership registry

  db::Database* db() { return &db_; }
  dm::DataManager* dm() { return dm_.get(); }
  dm::ProcessLayer* process() { return process_.get(); }
  pl::ProductCache* product_cache() { return cache_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }
  dm::RmiServer* rmi() { return rmi_.get(); }

 private:
  std::string name_;
  NodeOptions options_;
  Clock* clock_;

  MetricsRegistry metrics_;
  db::Database db_;
  archive::ArchiveManager archives_;
  std::unique_ptr<archive::NameMapper> mapper_;
  std::unique_ptr<dm::DataManager> dm_;
  std::unique_ptr<dm::ProcessLayer> process_;
  std::unique_ptr<pl::ProductCache> cache_;
  std::unique_ptr<dm::RmiServer> rmi_;
  std::unique_ptr<dm::TcpRmiServer> tcp_;
};

}  // namespace hedc::cluster

#endif  // HEDC_CLUSTER_NODE_H_
