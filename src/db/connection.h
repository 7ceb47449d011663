// Connections and connection pools.
//
// §5.3: "Creating database connections and user sessions are the two most
// expensive parts of request processing. ... The database connection pool
// is split into separate pools for query processing, updates, and user
// authentication. Connections are immediately released by sessions after
// the result set has been copied."
//
// There is no authentication pool: dm::UserManager checks credentials
// against the Database directly.
//
// Connection creation can charge a setup cost against the given Clock
// (default 0), so tests can check that pooled acquisitions never pay it.
#ifndef HEDC_DB_CONNECTION_H_
#define HEDC_DB_CONNECTION_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/status.h"
#include "db/database.h"

namespace hedc::db {

class Connection {
 public:
  // Opening a connection performs authentication against the database's
  // user table semantics (simulated) and pays `setup_cost`.
  Connection(Database* db, Clock* clock, Micros setup_cost);

  Result<ResultSet> Execute(std::string_view sql,
                            const std::vector<Value>& params = {});

  Database* database() { return db_; }
  int64_t id() const { return id_; }

 private:
  Database* db_;
  int64_t id_;
};

enum class PoolKind { kQuery = 0, kUpdate = 1 };

// A pooled connection handle; returns the connection on destruction.
class ConnectionPool;
class PooledConnection {
 public:
  PooledConnection() = default;
  PooledConnection(ConnectionPool* pool, PoolKind kind,
                   std::shared_ptr<Connection> conn)
      : pool_(pool), kind_(kind), conn_(std::move(conn)) {}
  ~PooledConnection();

  PooledConnection(PooledConnection&& other) noexcept { *this = std::move(other); }
  PooledConnection& operator=(PooledConnection&& other) noexcept;
  PooledConnection(const PooledConnection&) = delete;
  PooledConnection& operator=(const PooledConnection&) = delete;

  Connection* operator->() { return conn_.get(); }
  Connection* get() { return conn_.get(); }
  bool valid() const { return conn_ != nullptr; }

  // Early release (the "released immediately after the result set has been
  // copied" discipline).
  void Release();

 private:
  ConnectionPool* pool_ = nullptr;
  PoolKind kind_ = PoolKind::kQuery;
  std::shared_ptr<Connection> conn_;
};

class ConnectionPool {
 public:
  struct Options {
    size_t query_pool_size = 8;
    size_t update_pool_size = 4;
    Micros connection_setup_cost = 0;
  };

  ConnectionPool(Database* db, Clock* clock, Options options);

  // Blocks until a connection of the requested kind is available.
  PooledConnection Acquire(PoolKind kind);

  // Pool metrics.
  int64_t connections_created() const { return connections_created_; }
  size_t available(PoolKind kind) const;

 private:
  friend class PooledConnection;
  void ReturnConnection(PoolKind kind, std::shared_ptr<Connection> conn);
  std::shared_ptr<Connection> NewConnection();

  Database* db_;
  Clock* clock_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Connection>> free_[2];
  int64_t connections_created_ = 0;
};

}  // namespace hedc::db

#endif  // HEDC_DB_CONNECTION_H_
