// One DM node of a cluster (§5.2 component instances, §7 testbed nodes).
//
// ClusterNode bootstraps the full per-node stack — its own Database
// (optionally WAL-backed in a per-node directory), disk archive, name
// mapper, DataManager, ProcessLayer and derived-product cache — and
// serves it over a TcpRmiServer on an ephemeral loopback port. The RMI
// frames pass through a NodeGate, a bounded executor modeling the fixed
// CPU capacity of a real middle-tier node (the paper's testbed nodes had
// two processors): at most `executor_slots` frames execute concurrently
// and each is charged at least `service_floor` of wall time. The gate is
// also the measurement point for per-node in-flight and busy-time
// metrics, which the scale-out bench turns into utilization curves.
#ifndef HEDC_CLUSTER_NODE_H_
#define HEDC_CLUSTER_NODE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
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

// The shared DBMS tier behind every middle-tier node (§5.2: all DM nodes
// talk to one database server). At most `slots` statements execute
// concurrently across the whole cluster and each is charged at least
// `floor` of wall time; its busy-time counter is what the scale-out
// bench reports as shared_db_utilization — the resource whose saturation
// produces the fig5 knee.
class SharedGate {
 public:
  SharedGate(int slots, Micros floor, Clock* clock);

  // Runs `fn` holding one slot, sleeping up to the floor; returns the
  // wall time charged (actual execution or floor, whichever is larger).
  Micros Charge(const std::function<void()>& fn);

  int slots() const { return slots_; }
  int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  int64_t busy_micros() const {
    return busy_us_.load(std::memory_order_relaxed);
  }

 private:
  int slots_;
  Micros floor_;
  Clock* clock_;

  std::mutex mu_;
  std::condition_variable slot_free_;
  int active_ = 0;

  std::atomic<int64_t> busy_us_{0};
  std::atomic<int64_t> calls_{0};
};

struct NodeOptions {
  // Per-node WAL directory; empty = in-memory only (tests/benches).
  std::string wal_dir;
  // Bounded executor: max concurrent RMI frames (0 = unbounded).
  int executor_slots = 0;
  // Minimum wall time charged per gated RMI frame (0 = none). The
  // scale-out bench calibrates this to the browse model's app-logic
  // demand; production config leaves it 0.
  Micros service_floor = 0;
  // Shared DBMS tier every gated frame's query executes through (not
  // owned; nullptr = queries run ungated). Set by the cluster runner
  // when ClusterOptions::shared_db_slots > 0.
  SharedGate* shared_db = nullptr;
  // RMI transport tuning. The cluster runner points rmi.shared_reactor
  // at its own reactor, so N nodes serve from one event loop instead of
  // N thread armies; rmi.reactor.workers sizes that loop's worker pool,
  // which bounds how many calls the whole cluster executes at once.
  dm::TcpRmiServer::Options rmi;
  dm::DataManager::Options dm;
  pl::ProductCache::Options cache;
  bool enable_product_cache = true;
};

// Bounded RMI executor; see file comment.
class NodeGate : public dm::RmiHandler {
 public:
  NodeGate(dm::RmiHandler* inner, int slots, Micros service_floor,
           Clock* clock, MetricsRegistry* metrics,
           SharedGate* shared_db = nullptr);

  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request) override;

  int64_t inflight() const { return inflight_gauge_->Value(); }
  int64_t busy_micros() const {
    return busy_us_.load(std::memory_order_relaxed);
  }
  int64_t handled() const { return handled_.load(std::memory_order_relaxed); }

 private:
  dm::RmiHandler* inner_;
  int slots_;
  Micros service_floor_;
  Clock* clock_;
  SharedGate* shared_db_;

  std::mutex mu_;
  std::condition_variable slot_free_;
  int active_ = 0;

  std::atomic<int64_t> busy_us_{0};
  std::atomic<int64_t> handled_{0};
  Gauge* inflight_gauge_;
  Counter* queued_;
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
  NodeGate* gate() { return gate_.get(); }
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
  std::unique_ptr<NodeGate> gate_;
  std::unique_ptr<dm::TcpRmiServer> tcp_;
};

}  // namespace hedc::cluster

#endif  // HEDC_CLUSTER_NODE_H_
