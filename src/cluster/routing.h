// Session routing across cluster nodes (§5.4 call redirection, §7).
//
// Two policies:
//  * consistent_hash — each member owns `virtual_points` positions on a
//    64-bit hash ring (FNV-1a of "name#i"); a session key routes to the
//    first healthy owner clockwise from its own hash. Stable by
//    construction: a key moves only when the members between its hash
//    and its owner change, i.e. exactly on membership changes.
//  * least_loaded — a session key is assigned on first sight to the node
//    with the fewest sticky assignments and sticks to that assignment
//    until the node leaves or goes unhealthy.
//
// Both policies reconcile lazily against the MembershipRegistry epoch, so
// routers never need explicit notification of joins/leaves/health flips.
#ifndef HEDC_CLUSTER_ROUTING_H_
#define HEDC_CLUSTER_ROUTING_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "core/status.h"

namespace hedc::cluster {

enum class RoutingPolicy { kLeastLoaded, kConsistentHash };

// Parses the cluster.routing knob ("least_loaded" | "consistent_hash").
Result<RoutingPolicy> ParseRoutingPolicy(const std::string& name);
const char* RoutingPolicyName(RoutingPolicy policy);

class SessionRouter {
 public:
  SessionRouter(MembershipRegistry* membership, RoutingPolicy policy,
                int virtual_points = 64);

  // The healthy node that owns `session_key`; kUnavailable when the
  // cluster has no healthy member.
  Result<NodeInfo> Route(const std::string& session_key);

  // Ordered failover candidates after `primary_id`: ring successors for
  // consistent_hash, ascending load for least_loaded. Healthy nodes only.
  std::vector<NodeInfo> FallbackOrder(int primary_id);

  RoutingPolicy policy() const { return policy_; }
  // Sticky assignments per node (least_loaded introspection; empty for
  // consistent_hash, which keeps no per-key state).
  std::map<int, int64_t> AssignmentCounts() const;

 private:
  // Rebuilds ring / prunes assignments if the membership epoch moved.
  void ReconcileLocked();
  Result<NodeInfo> RouteHashLocked(uint64_t key_hash);
  Result<NodeInfo> RouteLeastLoadedLocked(const std::string& session_key);

  MembershipRegistry* membership_;
  RoutingPolicy policy_;
  int virtual_points_;

  mutable std::mutex mu_;
  int64_t seen_epoch_ = -1;
  std::vector<std::pair<uint64_t, int>> ring_;  // (point, node_id), sorted
  std::map<int, NodeInfo> members_;             // epoch-consistent copy
  std::map<std::string, int> assignments_;      // least_loaded stickiness
};

}  // namespace hedc::cluster

#endif  // HEDC_CLUSTER_ROUTING_H_
