// Database: catalog + SQL executor + transactions.
//
// Plays the role Oracle plays in HEDC: it stores only metadata (the actual
// science data lives in the archive's file system) and serves the indexed
// point/range/count queries the DM issues.
//
// Concurrency model (latch hierarchy, acquired strictly in this order):
//   1. catalog_mu_ — shared by every statement, exclusive for DDL
//      (CREATE/DROP TABLE, CREATE INDEX) and WAL reset;
//   2. one per-table latch — shared for SELECT, exclusive for DML.
// A DML statement touches one table latch, so writers to different
// tables proceed in parallel; the multi-latch paths (joined SELECTs and
// transaction rollback) acquire latches in ascending table-name order,
// which keeps the hierarchy deadlock-free. Explicit transactions assume a
// single writer thread (Begin/Commit/Rollback serialize on txn_mu_).
#ifndef HEDC_DB_DATABASE_H_
#define HEDC_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "db/sql.h"
#include "db/table.h"
#include "db/wal.h"

namespace hedc::db {

struct ScanMatch;    // db/vectorized.h
struct ScanOptions;
struct ScanStats;

// Tabular statement result. DML statements report affected row count.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected_rows = 0;
  int64_t last_insert_row_id = 0;

  size_t num_rows() const { return rows.size(); }
  // Ordinal of the named column (case-insensitive); nullopt when absent.
  // Decoders that read many rows look each column up once and index
  // `rows[i][ordinal]` directly.
  std::optional<size_t> ColumnIndex(std::string_view column) const;
  // Value at (row, named column) by reference, valid while the result set
  // lives; a static Null when the row is out of range or the column is
  // unknown. Scans `columns` on every call.
  const Value& Get(size_t row, std::string_view column) const;
};

// Execution statistics for the evaluation harness.
struct DbStats {
  std::atomic<int64_t> queries{0};        // SELECT statements
  std::atomic<int64_t> joins{0};          // joined SELECT statements
  std::atomic<int64_t> updates{0};        // INSERT/UPDATE/DELETE statements
  std::atomic<int64_t> full_scans{0};     // table scans (no usable index)
  std::atomic<int64_t> index_scans{0};    // index-assisted accesses
  std::atomic<int64_t> rows_examined{0};
  std::atomic<int64_t> rows_matched{0};        // rows surviving the WHERE
  std::atomic<int64_t> morsels_pruned{0};      // zone-map skips
  std::atomic<int64_t> stale_index_entries{0};  // dangling index hits
};

// Query-execution knobs (DESIGN.md §4e). `morsel_rows` applies to
// tables created after the change; the other fields take effect on the
// next statement.
struct ExecOptions {
  bool zone_maps = true;    // morsel min/max pruning
  int64_t morsel_rows = Table::kDefaultRowsPerMorsel;
  int scan_threads = 4;     // max parallelism of one full scan
  int join_partitions = 8;  // hash-join build partitions
};

class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Enables durability: appends every committed mutation to `wal_path` and
  // (if the file already has records) replays them first.
  Status OpenWal(const std::string& wal_path);

  // Truncates and reopens the WAL (used by checkpointing after a
  // snapshot has captured the current state). Requires an open WAL.
  Status ResetWal(const std::string& wal_path);
  bool wal_enabled() const { return wal_enabled_; }

  // Parses and executes one statement. `params` bind '?' markers in order.
  Result<ResultSet> Execute(std::string_view sql,
                            const std::vector<Value>& params = {});

  // Executes a pre-parsed statement (prepared-statement path; the
  // statement is not consumed and can be re-executed with new params).
  Result<ResultSet> ExecuteStatement(const Statement& stmt,
                                     const std::vector<Value>& params);

  // Explicit transactions (single writer at a time). DML inside a
  // transaction is applied immediately but undone on Rollback; WAL records
  // are buffered until Commit (flushed as one group-committed batch).
  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const {
    return in_txn_.load(std::memory_order_acquire);
  }

  // Direct table access for substrates that bypass SQL (BlobStore, tests).
  // The lookup is latched, but the returned table is not: callers are
  // expected to coordinate their own access (single-threaded admin paths).
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  void set_exec_options(const ExecOptions& opts) { exec_options_ = opts; }
  const ExecOptions& exec_options() const { return exec_options_; }

  DbStats& stats() { return stats_; }

  // Plan description for a joined SELECT, one line per pipeline stage
  // (driver scan, hash-join builds, terminal); mirrors the planner
  // decisions ExecJoinedSelect would make (src/db/join.cc).
  Result<std::vector<std::string>> ExplainJoinedSelect(
      const SelectStmt& stmt, const std::vector<Value>& params);

 private:
  struct UndoOp {
    WalOp op;  // inverse action is derived from this
    std::string table;
    int64_t row_id = 0;
    Row old_row;
  };

  // A catalog slot: the table plus its latch. Entries are only created or
  // destroyed under an exclusive catalog_mu_, so holding catalog_mu_
  // shared keeps the entry (and its latch) alive.
  struct TableEntry {
    TableEntry(std::string name, Schema schema, int64_t morsel_rows)
        : table(std::move(name), std::move(schema), morsel_rows) {}
    Table table;
    mutable std::shared_mutex latch;
  };

  Result<ResultSet> ExecSelect(const SelectStmt& stmt,
                               const std::vector<Value>& params);
  // Multi-table SELECT (src/db/join.cc): plans an equi-join pipeline
  // and runs it on the morsel engine.
  Result<ResultSet> ExecJoinedSelect(const SelectStmt& stmt,
                                     const std::vector<Value>& params);
  Result<ResultSet> ExecInsert(const InsertStmt& stmt,
                               const std::vector<Value>& params);
  Result<ResultSet> ExecUpdate(const UpdateStmt& stmt,
                               const std::vector<Value>& params);
  Result<ResultSet> ExecDelete(const DeleteStmt& stmt,
                               const std::vector<Value>& params);
  Result<ResultSet> ExecCreateTable(const CreateTableStmt& stmt);
  Result<ResultSet> ExecCreateIndex(const CreateIndexStmt& stmt);
  Result<ResultSet> ExecDropTable(const DropTableStmt& stmt);

  // Catalog lookup; caller must hold catalog_mu_ (shared or exclusive).
  TableEntry* FindEntry(const std::string& name);

  // If an index serves a sargable conjunct of `where`, fills `row_ids`
  // with candidates (residual predicate still required) and returns
  // true. Otherwise only bumps the full-scan counter and returns false.
  bool CollectIndexCandidates(Table* table, const Expr* where,
                              std::vector<int64_t>* row_ids);

  // Appends the rows of `table` that satisfy `where` to `matches` as
  // borrowed pointers, valid until the table's next mutation (the caller
  // holds its latch). When an index serves `where`, its candidates are
  // filtered with the whole predicate and dangling ids counted as stale;
  // otherwise, if `scan_heap`, the morsel engine scans the heap with
  // `where` pushed down (without it, the caller scans the heap itself).
  // Ticks stats_ and the process-wide counters once. Returns whether an
  // index served.
  Result<bool> FilterRows(Table* table, const Expr* where, bool scan_heap,
                          std::vector<ScanMatch>* matches);

  // Accounts one heap scan: rows run through the predicate, survivors
  // and pruned morsels, in stats_ and in the process-wide counters.
  void CountHeapScan(const ScanStats& scan);

  // Scan options from exec_options_, with the shared pool when the
  // statement may fan out.
  ScanOptions HeapScanOptions();

  // Lazily constructed worker pool shared by all parallel scans of this
  // database (sized to the host, capped; per-statement parallelism is
  // limited by ExecOptions::scan_threads instead).
  ThreadPool* ScanPool();

  void LogOrBuffer(WalRecord record);
  // DML bookkeeping: buffers WAL record + undo inside a transaction,
  // appends straight to the WAL otherwise.
  void RecordMutation(WalRecord record, UndoOp undo);

  // Latch hierarchy level 1 (see file comment).
  mutable std::shared_mutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<TableEntry>> tables_;
  WriteAheadLog wal_;
  bool wal_enabled_ = false;

  ExecOptions exec_options_;
  std::once_flag scan_pool_once_;
  std::unique_ptr<ThreadPool> scan_pool_;

  std::mutex txn_mu_;  // serializes explicit transactions
  std::atomic<bool> in_txn_{false};
  std::mutex txn_state_mu_;  // guards the two buffers below
  std::vector<UndoOp> undo_log_;
  std::vector<WalRecord> txn_wal_buffer_;

  DbStats stats_;
};

}  // namespace hedc::db

#endif  // HEDC_DB_DATABASE_H_
