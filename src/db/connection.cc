#include "db/connection.h"

#include <atomic>

#include "core/metrics.h"

namespace hedc::db {

namespace {

std::atomic<int64_t> g_next_connection_id{1};

Histogram* PoolWaitLatency() {
  static Histogram* const kHist =
      MetricsRegistry::Default()->GetHistogram("db.pool_wait_us");
  return kHist;
}

Gauge* PoolInUse() {
  static Gauge* const kGauge =
      MetricsRegistry::Default()->GetGauge("db.pool_in_use");
  return kGauge;
}

}  // namespace

Connection::Connection(Database* db, Clock* clock, Micros setup_cost)
    : db_(db), id_(g_next_connection_id.fetch_add(1)) {
  if (setup_cost > 0 && clock != nullptr) clock->SleepFor(setup_cost);
}

Result<ResultSet> Connection::Execute(std::string_view sql,
                                      const std::vector<Value>& params) {
  return db_->Execute(sql, params);
}

PooledConnection::~PooledConnection() { Release(); }

PooledConnection& PooledConnection::operator=(
    PooledConnection&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    kind_ = other.kind_;
    conn_ = std::move(other.conn_);
    other.pool_ = nullptr;
  }
  return *this;
}

void PooledConnection::Release() {
  if (pool_ != nullptr && conn_ != nullptr) {
    pool_->ReturnConnection(kind_, std::move(conn_));
  }
  conn_.reset();
  pool_ = nullptr;
}

ConnectionPool::ConnectionPool(Database* db, Clock* clock, Options options)
    : db_(db), clock_(clock), options_(options) {
  size_t sizes[2] = {options_.query_pool_size, options_.update_pool_size};
  for (int k = 0; k < 2; ++k) {
    for (size_t i = 0; i < sizes[k]; ++i) {
      free_[k].push_back(NewConnection());
    }
  }
}

std::shared_ptr<Connection> ConnectionPool::NewConnection() {
  ++connections_created_;
  return std::make_shared<Connection>(db_, clock_,
                                      options_.connection_setup_cost);
}

PooledConnection ConnectionPool::Acquire(PoolKind kind) {
  int k = static_cast<int>(kind);
  ScopedTimer wait_timer(PoolWaitLatency());
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this, k] { return !free_[k].empty(); });
  std::shared_ptr<Connection> conn = std::move(free_[k].front());
  free_[k].pop_front();
  PoolInUse()->Add(1);
  return PooledConnection(this, kind, std::move(conn));
}

void ConnectionPool::ReturnConnection(PoolKind kind,
                                      std::shared_ptr<Connection> conn) {
  std::lock_guard<std::mutex> lock(mu_);
  int k = static_cast<int>(kind);
  free_[k].push_back(std::move(conn));
  PoolInUse()->Add(-1);
  cv_.notify_all();
}

size_t ConnectionPool::available(PoolKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_[static_cast<int>(kind)].size();
}

}  // namespace hedc::db
