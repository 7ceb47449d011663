// One DM node of a cluster (§5.2 component instances, §7 testbed nodes).
//
// ClusterNode is a hedc::Node (its own Database, optionally WAL-backed in
// a per-node directory, archive, mapper, DM, PL and caches) plus an
// identity user and a TcpRmiServer on an ephemeral loopback port that
// hands RMI frames straight to the node's RmiServer.
#ifndef HEDC_CLUSTER_NODE_H_
#define HEDC_CLUSTER_NODE_H_

#include <memory>
#include <string>

#include "core/clock.h"
#include "core/metrics.h"
#include "dm/remote.h"
#include "dm/tcp_remote.h"
#include "node/node.h"

namespace hedc::cluster {

struct NodeOptions : hedc::NodeOptions {
  // RMI transport tuning. The cluster runner points rmi.shared_reactor
  // at its own reactor, so N nodes serve from one set of reactor threads
  // instead of N thread armies; rmi.reactor.loops sizes that set, which
  // bounds how many calls the whole cluster executes at once.
  dm::TcpRmiServer::Options rmi;
};

class ClusterNode : public hedc::Node {
 public:
  ClusterNode(std::string name, NodeOptions options,
              Clock* clock = RealClock::Instance());

  // Node::Boot, the identity user, then starts serving.
  Status Boot();
  // (Re)starts the TcpRmiServer on a fresh ephemeral port.
  Status StartServing();
  // Stops the TcpRmiServer; in-flight calls fail (clients observe a
  // reset). The node's state survives for a later StartServing().
  void StopServing();
  bool serving() const { return tcp_ != nullptr && tcp_->running(); }
  int port() const { return tcp_ != nullptr ? tcp_->port() : 0; }

  int node_id = -1;  // assigned by the runner's membership registry

  MetricsRegistry* metrics() { return &metrics_; }
  dm::RmiServer* rmi() { return rmi_.get(); }

 private:
  dm::TcpRmiServer::Options rmi_options_;
  MetricsRegistry metrics_;
  std::unique_ptr<dm::RmiServer> rmi_;
  std::unique_ptr<dm::TcpRmiServer> tcp_;
};

}  // namespace hedc::cluster

#endif  // HEDC_CLUSTER_NODE_H_
