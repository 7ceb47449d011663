#include "cluster/routing.h"

#include <algorithm>
#include <limits>

#include "core/content_hash.h"

namespace hedc::cluster {

namespace {

// FNV-1a of short, similar strings ("dm3#0".."dm3#63") leaves the high
// bits nearly sequential, which collapses each node's virtual points into
// one tight arc and skews ring ownership grotesquely. A 64-bit finalizer
// (MurmurHash3 fmix64) avalanches the bits so points spread uniformly.
uint64_t RingPoint(const std::string& s) {
  uint64_t x = Fnv1a64(s);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

Result<RoutingPolicy> ParseRoutingPolicy(const std::string& name) {
  if (name == "least_loaded") return RoutingPolicy::kLeastLoaded;
  if (name == "consistent_hash") return RoutingPolicy::kConsistentHash;
  return Status::InvalidArgument("cluster.routing must be least_loaded or "
                                 "consistent_hash, got '" +
                                 name + "'");
}

const char* RoutingPolicyName(RoutingPolicy policy) {
  return policy == RoutingPolicy::kLeastLoaded ? "least_loaded"
                                               : "consistent_hash";
}

SessionRouter::SessionRouter(MembershipRegistry* membership,
                             RoutingPolicy policy, int virtual_points)
    : membership_(membership),
      policy_(policy),
      virtual_points_(virtual_points < 1 ? 1 : virtual_points) {}

void SessionRouter::ReconcileLocked() {
  int64_t epoch = membership_->epoch();
  if (epoch == seen_epoch_) return;
  seen_epoch_ = epoch;
  members_.clear();
  for (const NodeInfo& info : membership_->Snapshot()) {
    members_[info.node_id] = info;
  }
  // Ring over *all* members (healthy or not): a downed node's keys spill
  // to its successor and return when it recovers, everyone else's keys
  // stay put.
  ring_.clear();
  ring_.reserve(members_.size() * static_cast<size_t>(virtual_points_));
  for (const auto& [id, info] : members_) {
    for (int i = 0; i < virtual_points_; ++i) {
      uint64_t point =
          RingPoint(info.name + "#" + std::to_string(i));
      ring_.emplace_back(point, id);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  // Sticky assignments to departed or unhealthy nodes dissolve; those
  // sessions get re-placed (by load) on their next request.
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    auto member = members_.find(it->second);
    if (member == members_.end() || !member->second.healthy) {
      it = assignments_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<NodeInfo> SessionRouter::RouteHashLocked(uint64_t key_hash) {
  if (ring_.empty()) return Status::Unavailable("cluster has no members");
  auto start = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(key_hash, std::numeric_limits<int>::min()));
  for (size_t step = 0; step < ring_.size(); ++step) {
    auto it = start + static_cast<long>(step);
    if (it >= ring_.end()) it -= static_cast<long>(ring_.size());
    const NodeInfo& info = members_.at(it->second);
    if (info.healthy) return info;
  }
  return Status::Unavailable("cluster has no healthy member");
}

Result<NodeInfo> SessionRouter::RouteLeastLoadedLocked(
    const std::string& session_key) {
  auto assigned = assignments_.find(session_key);
  if (assigned != assignments_.end()) {
    return members_.at(assigned->second);  // reconciled: known healthy
  }
  std::map<int, int64_t> load;
  for (const auto& [key, id] : assignments_) ++load[id];
  const NodeInfo* best = nullptr;
  int64_t best_load = 0;
  for (const auto& [id, info] : members_) {
    if (!info.healthy) continue;
    if (best == nullptr || load[id] < best_load) {
      best = &info;
      best_load = load[id];
    }
  }
  if (best == nullptr) {
    return Status::Unavailable("cluster has no healthy member");
  }
  assignments_[session_key] = best->node_id;
  return *best;
}

Result<NodeInfo> SessionRouter::Route(const std::string& session_key) {
  std::lock_guard<std::mutex> lock(mu_);
  ReconcileLocked();
  if (policy_ == RoutingPolicy::kConsistentHash) {
    return RouteHashLocked(RingPoint(session_key));
  }
  return RouteLeastLoadedLocked(session_key);
}

std::vector<NodeInfo> SessionRouter::FallbackOrder(int primary_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ReconcileLocked();
  std::vector<NodeInfo> out;
  if (policy_ == RoutingPolicy::kConsistentHash) {
    // Ring successors of the primary's first virtual point, in clockwise
    // order, one entry per distinct healthy node.
    auto primary = members_.find(primary_id);
    if (primary == members_.end()) return out;
    uint64_t start_point = RingPoint(primary->second.name + "#0");
    auto start = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(start_point, std::numeric_limits<int>::min()));
    for (size_t step = 0; step < ring_.size(); ++step) {
      auto it = start + static_cast<long>(step);
      if (it >= ring_.end()) it -= static_cast<long>(ring_.size());
      if (it->second == primary_id) continue;
      const NodeInfo& info = members_.at(it->second);
      if (!info.healthy) continue;
      bool seen = false;
      for (const NodeInfo& chosen : out) {
        if (chosen.node_id == info.node_id) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(info);
    }
    return out;
  }
  // least_loaded: healthy peers by ascending sticky load, ties by id.
  std::map<int, int64_t> load;
  for (const auto& [key, id] : assignments_) ++load[id];
  for (const auto& [id, info] : members_) {
    if (id == primary_id || !info.healthy) continue;
    out.push_back(info);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&load](const NodeInfo& a, const NodeInfo& b) {
                     return load[a.node_id] < load[b.node_id];
                   });
  return out;
}

std::map<int, int64_t> SessionRouter::AssignmentCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, int64_t> out;
  for (const auto& [key, id] : assignments_) ++out[id];
  return out;
}

}  // namespace hedc::cluster
