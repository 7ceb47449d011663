#include "dm/dm.h"

namespace hedc::dm {

DataManager::DataManager(std::string name, db::Database* db,
                         archive::ArchiveManager* archives,
                         archive::NameMapper* mapper, Clock* clock,
                         Options options)
    : name_(std::move(name)), db_(db), clock_(clock) {
  io_ = std::make_unique<IoLayer>(db_, archives, mapper);
  semantics_ = std::make_unique<SemanticLayer>(io_.get(), clock_);
  sessions_ = std::make_unique<SessionManager>(clock_, options.sessions);
  users_ = std::make_unique<UserManager>(db_);
}

Status DataManager::LogOperational(const std::string& component,
                                   const std::string& message) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update(
          "op_logs", "INSERT INTO op_logs VALUES (?, ?, 'INFO', ?, ?)",
          {db::Value::Int(log_ids_.Next()),
           db::Value::Real(static_cast<double>(clock_->Now()) /
                           kMicrosPerSecond),
           db::Value::Text(component), db::Value::Text(message)}));
  (void)r;
  return Status::Ok();
}

Status DataManager::MirrorMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) registry = MetricsRegistry::Default();
  double now_seconds =
      static_cast<double>(clock_->Now()) / kMicrosPerSecond;

  // Keep only the latest snapshot so readers can SELECT without MAX().
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet cleared,
      io_->Update("metric_snapshots", "DELETE FROM metric_snapshots", {}));
  (void)cleared;
  for (const MetricsRegistry::MetricValue& m : registry->SnapshotValues()) {
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet r,
        io_->Update("metric_snapshots",
                    "INSERT INTO metric_snapshots VALUES (?, ?, ?, ?, ?)",
                    {db::Value::Int(snap_ids_.Next()),
                     db::Value::Real(now_seconds), db::Value::Text(m.name),
                     db::Value::Text(m.kind), db::Value::Real(m.value)}));
    (void)r;
  }

  for (const TraceEvent& event : registry->traces().Drain()) {
    HEDC_ASSIGN_OR_RETURN(
        db::ResultSet r,
        io_->Update("request_traces",
                    "INSERT INTO request_traces VALUES (?, ?, ?, ?, ?, ?, ?)",
                    {db::Value::Int(trace_row_ids_.Next()),
                     db::Value::Int(event.trace_id),
                     db::Value::Text(event.component),
                     db::Value::Text(event.span),
                     db::Value::Int(event.start_us),
                     db::Value::Int(event.end_us),
                     db::Value::Text(event.note)}));
    (void)r;
  }
  return Status::Ok();
}

}  // namespace hedc::dm
