// DataManager: the DM component facade (§5.2, §5.4).
//
// Wires the I/O layer, semantic layer, sessions, users and connection
// pools into one component, and implements call redirection: a DM node
// keeps a list of peers and can route work to them ("In general, the
// calling methods do not know where the code is actually executed, but
// can use overwrites to, e.g., force local execution.").
#ifndef HEDC_DM_DM_H_
#define HEDC_DM_DM_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "db/connection.h"
#include "db/database.h"
#include "dm/io_layer.h"
#include "dm/semantic_layer.h"
#include "dm/session.h"
#include "dm/users.h"

namespace hedc::dm {

class DataManager {
 public:
  struct Options {
    db::ConnectionPool::Options pool;
    SessionManager::Options sessions;
  };

  // All borrowed pointers must outlive the DataManager. `db` is the
  // metadata DBMS this node talks to by default.
  DataManager(std::string name, db::Database* db,
              archive::ArchiveManager* archives,
              archive::NameMapper* mapper, Clock* clock, Options options);

  DataManager(const DataManager&) = delete;
  DataManager& operator=(const DataManager&) = delete;

  const std::string& name() const { return name_; }
  Clock* clock() { return clock_; }

  IoLayer& io() { return *io_; }
  SemanticLayer& semantics() { return *semantics_; }
  SessionManager& sessions() { return *sessions_; }
  UserManager& users() { return *users_; }
  db::ConnectionPool& pool() { return *pool_; }
  db::Database* database() { return db_; }

  // --- call redirection (§5.4) ----------------------------------------
  void AddPeer(DataManager* peer);
  size_t num_peers() const { return peers_.size(); }
  // Picks the execution node for the next call: round-robin over self and
  // peers. `force_local` is the per-call overwrite.
  DataManager* Route(bool force_local = false);

  // Operational logging into the op_logs table.
  Status LogOperational(const std::string& component,
                        const std::string& message);

  // Mirrors the registry into the operational schema: replaces the
  // metric_snapshots table with the current snapshot and drains buffered
  // trace spans into request_traces. nullptr = the process-wide registry.
  Status MirrorMetrics(MetricsRegistry* registry = nullptr);

  int64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }
  void CountRequest() {
    requests_handled_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  db::Database* db_;
  Clock* clock_;

  std::unique_ptr<db::ConnectionPool> pool_;
  std::unique_ptr<IoLayer> io_;
  std::unique_ptr<SemanticLayer> semantics_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<UserManager> users_;

  std::vector<DataManager*> peers_;
  std::atomic<size_t> route_counter_{0};
  std::atomic<int64_t> requests_handled_{0};
  IdGenerator log_ids_{1};
  IdGenerator snap_ids_{1};
  IdGenerator trace_row_ids_{1};
};

}  // namespace hedc::dm

#endif  // HEDC_DM_DM_H_
