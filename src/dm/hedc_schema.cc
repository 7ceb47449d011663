#include "dm/hedc_schema.h"

namespace hedc::dm {

namespace {

Status ExecAll(db::Database* db, const char* const* statements, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Result<db::ResultSet> r = db->Execute(statements[i]);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return r.status();
    }
  }
  return Status::Ok();
}

}  // namespace

Status CreateGenericSchema(db::Database* db) {
  static const char* const kStatements[] = {
      // --- administrative section ---
      "CREATE TABLE IF NOT EXISTS users ("
      "user_id INT PRIMARY KEY, name TEXT NOT NULL, password_hash TEXT, "
      "can_browse BOOL, can_download BOOL, can_analyze BOOL, "
      "can_upload BOOL, is_super BOOL, status TEXT, sessions_open INT)",
      "CREATE INDEX users_by_name ON users (name) USING HASH",

      "CREATE TABLE IF NOT EXISTS services ("
      "service_id INT PRIMARY KEY, service_type TEXT, location TEXT, "
      "prerequisites TEXT, status TEXT)",

      "CREATE TABLE IF NOT EXISTS clients ("
      "client_id INT PRIMARY KEY, client_type TEXT, ip TEXT, status TEXT)",

      "CREATE TABLE IF NOT EXISTS predefined_queries ("
      "query_id INT PRIMARY KEY, name TEXT, description TEXT, sql TEXT)",

      "CREATE TABLE IF NOT EXISTS config_params ("
      "param_key TEXT NOT NULL, param_value TEXT)",
      "CREATE INDEX config_by_key ON config_params (param_key) USING HASH",

      // --- operational section ---
      "CREATE TABLE IF NOT EXISTS op_logs ("
      "log_id INT PRIMARY KEY, log_time REAL, level TEXT, component TEXT, "
      "message TEXT)",

      "CREATE TABLE IF NOT EXISTS lineage ("
      "lineage_id INT PRIMARY KEY, item_id INT, source_item_id INT, "
      "operation TEXT, calibration_version INT, parameters TEXT)",
      "CREATE INDEX lineage_by_item ON lineage (item_id) USING HASH",

      "CREATE TABLE IF NOT EXISTS archive_status ("
      "archive_id INT PRIMARY KEY, online BOOL, capacity_left INT, "
      "archive_type TEXT)",

      "CREATE TABLE IF NOT EXISTS usage_stats ("
      "stat_id INT PRIMARY KEY, stat_time REAL, user_id INT, "
      "operation TEXT, duration_ms REAL)",

      // Mirrored metrics: the latest MetricsRegistry snapshot, one row per
      // counter/gauge/histogram facet (see DataManager::MirrorMetrics).
      "CREATE TABLE IF NOT EXISTS metric_snapshots ("
      "snap_id INT PRIMARY KEY, snap_time REAL, metric TEXT, kind TEXT, "
      "value REAL)",

      // Drained trace spans: one row per completed span of a traced
      // request, queryable by trace id.
      "CREATE TABLE IF NOT EXISTS request_traces ("
      "trace_row_id INT PRIMARY KEY, trace_id INT, component TEXT, "
      "span TEXT, start_us INT, end_us INT, note TEXT)",
      "CREATE INDEX traces_by_id ON request_traces (trace_id) USING HASH",

      // Derived-product cache directory (pl::ProductCache): one row per
      // persisted entry, content-addressed by the FNV-1a of the canonical
      // (routine, parameters, input units + calibration versions) form.
      // The blob itself lives in an archive under the item id, resolvable
      // via the name mapper like any other file. unit_ids /
      // calibration_versions are comma-separated lineage material the
      // recalibration and purge workflows scan for invalidation.
      "CREATE TABLE IF NOT EXISTS product_cache ("
      "cache_key INT PRIMARY KEY, item_id INT, routine TEXT, "
      "parameters TEXT, unit_ids TEXT, calibration_versions TEXT, "
      "size_bytes INT, cost_seconds REAL, ana_id INT, created_time REAL)",
  };
  return ExecAll(db, kStatements,
                 sizeof(kStatements) / sizeof(kStatements[0]));
}

Status CreateRhessiSchema(db::Database* db) {
  static const char* const kStatements[] = {
      "CREATE TABLE IF NOT EXISTS raw_units ("
      "unit_id INT PRIMARY KEY, t_start REAL, t_stop REAL, "
      "n_photons INT, calibration_version INT, file_bytes INT, "
      "format TEXT, received_time REAL, status TEXT)",
      "CREATE INDEX raw_units_by_time ON raw_units (t_start)",

      // High-level events: "roughly a period of time and range of energy
      // that has been determined to be relevant by a specific user".
      "CREATE TABLE IF NOT EXISTS hle ("
      "hle_id INT PRIMARY KEY, owner_id INT NOT NULL, is_public BOOL, "
      "event_type TEXT, t_start REAL, t_end REAL, e_min REAL, e_max REAL, "
      "peak_rate REAL, peak_energy REAL, photon_count INT, "
      "unit_id INT, calibration_version INT, version INT, "
      "superseded_by INT, label TEXT, notes TEXT, created_time REAL, "
      "source TEXT, quality REAL)",
      "CREATE INDEX hle_by_time ON hle (t_start)",
      "CREATE INDEX hle_by_type ON hle (event_type) USING HASH",
      "CREATE INDEX hle_by_owner ON hle (owner_id) USING HASH",

      // Analyses: parameters, logs and derived images hang off an HLE.
      "CREATE TABLE IF NOT EXISTS ana ("
      "ana_id INT PRIMARY KEY, hle_id INT NOT NULL, owner_id INT NOT NULL, "
      "is_public BOOL, routine TEXT, parameters TEXT, param_hash INT, "
      "status TEXT, quality REAL, t_start REAL, t_end REAL, "
      "e_min REAL, e_max REAL, photon_count INT, image_bytes INT, "
      "log_excerpt TEXT, calibration_version INT, version INT, "
      "superseded_by INT, created_time REAL, duration_ms REAL, "
      "peak_value REAL, pixels INT, notes TEXT)",
      "CREATE INDEX ana_by_hle ON ana (hle_id) USING HASH",
      "CREATE INDEX ana_by_param ON ana (param_hash) USING HASH",
      "CREATE INDEX ana_by_owner ON ana (owner_id) USING HASH",

      // Catalogs group HLEs: the standard/extended catalogs plus private
      // user workspaces.
      "CREATE TABLE IF NOT EXISTS catalogs ("
      "catalog_id INT PRIMARY KEY, owner_id INT NOT NULL, is_public BOOL, "
      "name TEXT NOT NULL, description TEXT, created_time REAL)",
      "CREATE INDEX catalogs_by_name ON catalogs (name) USING HASH",

      "CREATE TABLE IF NOT EXISTS catalog_members ("
      "member_id INT PRIMARY KEY, catalog_id INT NOT NULL, "
      "hle_id INT NOT NULL)",
      "CREATE INDEX members_by_catalog ON catalog_members (catalog_id) "
      "USING HASH",
      "CREATE INDEX members_by_hle ON catalog_members (hle_id) USING HASH",
  };
  return ExecAll(db, kStatements,
                 sizeof(kStatements) / sizeof(kStatements[0]));
}

Status CreateFullSchema(db::Database* db) {
  HEDC_RETURN_IF_ERROR(CreateGenericSchema(db));
  return CreateRhessiSchema(db);
}

}  // namespace hedc::dm
