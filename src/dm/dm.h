// DataManager: the DM component facade (§5.2, §5.4).
//
// Wires the I/O layer, semantic layer, sessions and users into one
// component. Call redirection (§5.4) lives outside it: a web server's
// NodeRouter (WebServer::set_node_router) picks the node for a request.
#ifndef HEDC_DM_DM_H_
#define HEDC_DM_DM_H_

#include <atomic>
#include <memory>
#include <string>

#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "db/database.h"
#include "dm/io_layer.h"
#include "dm/semantic_layer.h"
#include "dm/session.h"
#include "dm/users.h"

namespace hedc::dm {

class DataManager {
 public:
  struct Options {
    // Read by nothing: the DM has no connection pool. perfbench still
    // assigns pool.connection_setup_cost, so the field stays until the
    // next change to perfbench drops that line with it.
    struct Pool {
      Micros connection_setup_cost = 0;
    };
    Pool pool;
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
  db::Database* database() { return db_; }

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

  std::unique_ptr<IoLayer> io_;
  std::unique_ptr<SemanticLayer> semantics_;
  std::unique_ptr<SessionManager> sessions_;
  std::unique_ptr<UserManager> users_;

  std::atomic<int64_t> requests_handled_{0};
  IdGenerator log_ids_{1};
  IdGenerator snap_ids_{1};
  IdGenerator trace_row_ids_{1};
};

}  // namespace hedc::dm

#endif  // HEDC_DM_DM_H_
