#include "db/database.h"

#include <algorithm>
#include <thread>

#include "core/metrics.h"
#include "core/strings.h"
#include "db/join.h"
#include "db/scan_bounds.h"
#include "db/vectorized.h"

namespace hedc::db {

namespace {

// Statement latency histograms, shared by every Database in the process.
Histogram* QueryLatency() {
  static Histogram* const kHist =
      MetricsRegistry::Default()->GetHistogram("db.query_us");
  return kHist;
}

Histogram* UpdateLatency() {
  static Histogram* const kHist =
      MetricsRegistry::Default()->GetHistogram("db.update_us");
  return kHist;
}

// Scan-volume counters: rows run through predicate evaluation vs. rows
// that survived it. Their ratio is the selectivity the zone maps and
// indexes are supposed to exploit.
Counter* RowsScannedCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.rows_scanned");
  return kCounter;
}

Counter* RowsMatchedCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.rows_matched");
  return kCounter;
}

// Index entries pointing at rows that no longer exist. A steady climb
// means index maintenance is broken somewhere.
Counter* StaleIndexCounter() {
  static Counter* const kCounter =
      MetricsRegistry::Default()->GetCounter("db.stale_index_entries");
  return kCounter;
}

std::string NormalizeName(std::string_view name) { return ToLower(name); }

}  // namespace

std::optional<size_t> ResultSet::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i], column)) return i;
  }
  return std::nullopt;
}

const Value& ResultSet::Get(size_t row, std::string_view column) const {
  static const Value kNull;
  if (row >= rows.size()) return kNull;
  std::optional<size_t> i = ColumnIndex(column);
  return i && *i < rows[row].size() ? rows[row][*i] : kNull;
}

Status Database::OpenWal(const std::string& wal_path) {
  std::vector<WalRecord> records;
  Status read = WriteAheadLog::ReadAll(wal_path, &records);
  if (!read.ok() && !read.IsNotFound()) return read;
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  // Replay into the catalog before enabling logging so replay itself is
  // not re-logged.
  for (const WalRecord& record : records) {
    std::string key = NormalizeName(record.table);
    switch (record.op) {
      case WalOp::kCreateTable:
        if (tables_.count(key) == 0) {
          tables_[key] = std::make_unique<TableEntry>(
              record.table, record.schema, exec_options_.morsel_rows);
        }
        break;
      case WalOp::kCreateIndex: {
        auto it = tables_.find(key);
        if (it != tables_.end()) {
          Status s = it->second->table.CreateIndex(
              record.index_name, record.column,
              record.hash_index ? IndexKind::kHash : IndexKind::kBTree);
          if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        }
        break;
      }
      case WalOp::kDropTable:
        tables_.erase(key);
        break;
      case WalOp::kInsert: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(
            it->second->table.InsertWithId(record.row_id, record.row));
        break;
      }
      case WalOp::kUpdate: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(
            it->second->table.Update(record.row_id, record.row));
        break;
      }
      case WalOp::kDelete: {
        auto it = tables_.find(key);
        if (it == tables_.end()) break;
        HEDC_RETURN_IF_ERROR(it->second->table.Delete(record.row_id));
        break;
      }
    }
  }
  HEDC_RETURN_IF_ERROR(wal_.Open(wal_path));
  wal_enabled_ = true;
  return Status::Ok();
}

Status Database::ResetWal(const std::string& wal_path) {
  // Exclusive catalog lock: no statement (and hence no WAL append) can be
  // in flight while the log file is swapped out underneath.
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (!wal_enabled_) {
    return Status::FailedPrecondition("WAL is not enabled");
  }
  wal_.Close();
  std::FILE* f = std::fopen(wal_path.c_str(), "wb");  // truncate
  if (f == nullptr) {
    return Status::Internal("cannot truncate WAL: " + wal_path);
  }
  std::fclose(f);
  return wal_.Open(wal_path);
}

void Database::LogOrBuffer(WalRecord record) {
  if (!wal_enabled_) return;
  if (in_txn_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(txn_state_mu_);
    if (in_txn_.load(std::memory_order_relaxed)) {
      txn_wal_buffer_.push_back(std::move(record));
      return;
    }
  }
  wal_.Append(record);
}

void Database::RecordMutation(WalRecord record, UndoOp undo) {
  if (in_txn_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(txn_state_mu_);
    if (in_txn_.load(std::memory_order_relaxed)) {
      undo_log_.push_back(std::move(undo));
      if (wal_enabled_) txn_wal_buffer_.push_back(std::move(record));
      return;
    }
  }
  if (wal_enabled_) wal_.Append(record);
}

Status Database::Begin() {
  std::lock_guard<std::mutex> lock(txn_mu_);
  if (in_txn_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("transaction already open");
  }
  std::lock_guard<std::mutex> state_lock(txn_state_mu_);
  undo_log_.clear();
  txn_wal_buffer_.clear();
  in_txn_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status Database::Commit() {
  std::lock_guard<std::mutex> lock(txn_mu_);
  if (!in_txn_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("no open transaction");
  }
  std::vector<WalRecord> to_flush;
  {
    std::lock_guard<std::mutex> state_lock(txn_state_mu_);
    to_flush = std::move(txn_wal_buffer_);
    txn_wal_buffer_.clear();
  }
  if (wal_.is_open() && !to_flush.empty()) {
    // One durable unit: the whole transaction shares a single fsync.
    Status appended = wal_.AppendBatch(to_flush);
    if (!appended.ok()) {
      std::lock_guard<std::mutex> state_lock(txn_state_mu_);
      txn_wal_buffer_ = std::move(to_flush);
      return appended;
    }
  }
  std::lock_guard<std::mutex> state_lock(txn_state_mu_);
  undo_log_.clear();
  in_txn_.store(false, std::memory_order_release);
  return Status::Ok();
}

Status Database::Rollback() {
  std::lock_guard<std::mutex> txn_lock(txn_mu_);
  if (!in_txn_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("no open transaction");
  }
  std::vector<UndoOp> undo;
  {
    std::lock_guard<std::mutex> state_lock(txn_state_mu_);
    undo = std::move(undo_log_);
    undo_log_.clear();
    txn_wal_buffer_.clear();
    in_txn_.store(false, std::memory_order_release);
  }

  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  // Latch every touched table exclusively, in ascending name order (the
  // deterministic order that keeps the latch hierarchy deadlock-free).
  std::vector<std::string> keys;
  for (const UndoOp& op : undo) keys.push_back(NormalizeName(op.table));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::unique_lock<std::shared_mutex>> latches;
  latches.reserve(keys.size());
  for (const std::string& key : keys) {
    auto it = tables_.find(key);
    if (it != tables_.end()) latches.emplace_back(it->second->latch);
  }

  // Undo in reverse order.
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    auto table_it = tables_.find(NormalizeName(it->table));
    if (table_it == tables_.end()) continue;
    Table* table = &table_it->second->table;
    switch (it->op) {
      case WalOp::kInsert:
        table->Delete(it->row_id);
        break;
      case WalOp::kUpdate:
        table->Update(it->row_id, it->old_row);
        break;
      case WalOp::kDelete:
        table->InsertWithId(it->row_id, it->old_row);
        break;
      default:
        break;
    }
  }
  return Status::Ok();
}

Database::TableEntry* Database::FindEntry(const std::string& name) {
  auto it = tables_.find(NormalizeName(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  TableEntry* entry = FindEntry(name);
  return entry == nullptr ? nullptr : &entry->table;
}

const Table* Database::GetTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = tables_.find(NormalizeName(name));
  return it == tables_.end() ? nullptr : &it->second->table;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) names.push_back(entry->table.name());
  std::sort(names.begin(), names.end());
  return names;
}

ThreadPool* Database::ScanPool() {
  std::call_once(scan_pool_once_, [this] {
    // One worker fewer than the host so the caller thread (which always
    // participates in its own scan) has a core; per-statement fan-out is
    // bounded by scan_threads, not by the pool size.
    size_t hw = std::thread::hardware_concurrency();
    size_t n = hw > 1 ? hw - 1 : 1;
    scan_pool_ = std::make_unique<ThreadPool>(std::min<size_t>(n, 16));
  });
  return scan_pool_.get();
}

ScanOptions Database::HeapScanOptions() {
  ScanOptions sopts;
  sopts.zone_maps = exec_options_.zone_maps;
  sopts.threads = exec_options_.scan_threads;
  sopts.pool = exec_options_.scan_threads > 1 ? ScanPool() : nullptr;
  return sopts;
}

Result<ResultSet> Database::Execute(std::string_view sql,
                                    const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseSql(sql));
  return ExecuteStatement(*stmt, params);
}

Result<ResultSet> Database::ExecuteStatement(
    const Statement& stmt, const std::vector<Value>& params) {
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      stats_.queries.fetch_add(1, std::memory_order_relaxed);
      ScopedTimer timer(QueryLatency());
      return ExecSelect(stmt.select, params);
    }
    case Statement::Kind::kInsert: {
      stats_.updates.fetch_add(1, std::memory_order_relaxed);
      ScopedTimer timer(UpdateLatency());
      return ExecInsert(stmt.insert, params);
    }
    case Statement::Kind::kUpdate: {
      stats_.updates.fetch_add(1, std::memory_order_relaxed);
      ScopedTimer timer(UpdateLatency());
      return ExecUpdate(stmt.update, params);
    }
    case Statement::Kind::kDelete: {
      stats_.updates.fetch_add(1, std::memory_order_relaxed);
      ScopedTimer timer(UpdateLatency());
      return ExecDelete(stmt.del, params);
    }
    case Statement::Kind::kCreateTable:
      return ExecCreateTable(stmt.create_table);
    case Statement::Kind::kCreateIndex:
      return ExecCreateIndex(stmt.create_index);
    case Statement::Kind::kDropTable:
      return ExecDropTable(stmt.drop_table);
    case Statement::Kind::kBegin: {
      HEDC_RETURN_IF_ERROR(Begin());
      return ResultSet{};
    }
    case Statement::Kind::kCommit: {
      HEDC_RETURN_IF_ERROR(Commit());
      return ResultSet{};
    }
    case Statement::Kind::kRollback: {
      HEDC_RETURN_IF_ERROR(Rollback());
      return ResultSet{};
    }
  }
  return Status::Internal("unreachable statement kind");
}

bool Database::CollectIndexCandidates(Table* table, const Expr* where,
                                      std::vector<int64_t>* row_ids) {
  if (where != nullptr) {
    std::unordered_map<int, ColumnBounds> bounds = ExtractColumnBounds(where);

    // Prefer an equality-indexed column, then a range-indexed column.
    for (const auto& [col, b] : bounds) {
      if (!b.eq.has_value()) continue;
      const IndexDef* def =
          table->FindIndex(static_cast<size_t>(col), /*need_range=*/false);
      if (def == nullptr) continue;
      table->IndexLookup(*def, *b.eq, row_ids);
      stats_.index_scans.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    for (const auto& [col, b] : bounds) {
      if (!b.lo.has_value() && !b.hi.has_value()) continue;
      const IndexDef* def =
          table->FindIndex(static_cast<size_t>(col), /*need_range=*/true);
      if (def == nullptr) continue;
      table->IndexRange(*def, b.lo, b.lo_inclusive, b.hi, b.hi_inclusive,
                        row_ids);
      stats_.index_scans.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  stats_.full_scans.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Result<bool> Database::FilterRows(Table* table, const Expr* where,
                                  bool scan_heap,
                                  std::vector<ScanMatch>* matches) {
  std::vector<int64_t> candidates;
  if (!CollectIndexCandidates(table, where, &candidates)) {
    if (!scan_heap) return false;
    ScanStats scan;
    HEDC_RETURN_IF_ERROR(
        ScanFilter(*table, where, HeapScanOptions(), matches, &scan));
    CountHeapScan(scan);
    return false;
  }
  // Filter the index candidates with the full predicate (residual
  // included). They count as examined rows but not as heap-scanned ones.
  const size_t before = matches->size();
  matches->reserve(before + candidates.size());
  int64_t examined = 0;
  int64_t stale = 0;
  for (int64_t row_id : candidates) {
    const Row* row = table->Find(row_id);
    if (row == nullptr) {
      // The index returned a row id the heap no longer has. Harmless
      // for this query (the row is gone) but a symptom worth counting.
      ++stale;
      continue;
    }
    ++examined;
    if (where != nullptr) {
      HEDC_ASSIGN_OR_RETURN(Value keep, EvalExpr(*where, *row));
      if (!keep.AsBool()) continue;
    }
    matches->push_back(ScanMatch{row_id, row});
  }
  const int64_t matched = static_cast<int64_t>(matches->size() - before);
  stats_.rows_examined.fetch_add(examined, std::memory_order_relaxed);
  stats_.rows_matched.fetch_add(matched, std::memory_order_relaxed);
  RowsMatchedCounter()->Add(matched);
  if (stale > 0) {
    stats_.stale_index_entries.fetch_add(stale, std::memory_order_relaxed);
    StaleIndexCounter()->Add(stale);
  }
  return true;
}

void Database::CountHeapScan(const ScanStats& scan) {
  stats_.rows_examined.fetch_add(scan.rows_scanned, std::memory_order_relaxed);
  stats_.rows_matched.fetch_add(scan.rows_matched, std::memory_order_relaxed);
  stats_.morsels_pruned.fetch_add(scan.morsels_pruned,
                                  std::memory_order_relaxed);
  RowsScannedCounter()->Add(scan.rows_scanned);
  RowsMatchedCounter()->Add(scan.rows_matched);
}

Result<ResultSet> Database::ExecSelect(const SelectStmt& stmt,
                                       const std::vector<Value>& params) {
  if (!stmt.joins.empty()) return ExecJoinedSelect(stmt, params);
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  std::shared_lock<std::shared_mutex> latch(entry->latch);
  Table* table = &entry->table;
  const Schema& schema = table->schema();

  // Column references may carry the table as a qualifier even in
  // single-table statements.
  auto resolve = [&](const std::string& name) -> std::optional<size_t> {
    auto ci = schema.ColumnIndex(name);
    if (!ci.has_value()) {
      ci = schema.ColumnIndex(StripQualifier(name, stmt.table));
    }
    return ci;
  };

  std::unique_ptr<Expr> where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    StripQualifiers(where.get(), stmt.table);
    HEDC_RETURN_IF_ERROR(BindExpr(where.get(), schema, params));
  }

  // Resolve the output shape up front: the aggregate fast path below
  // picks its scan strategy from it.
  bool has_agg = false;
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) has_agg = true;
  }
  const bool agg_path = has_agg || !stmt.group_by.empty();
  std::vector<int> group_cols;
  std::vector<AggSpec> agg_specs;
  std::vector<GroupedAggregator::OutputSlot> agg_layout;
  if (agg_path) {
    if (stmt.star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    for (const std::string& g : stmt.group_by) {
      auto ci = resolve(g);
      if (!ci.has_value()) {
        return Status::InvalidArgument("unknown GROUP BY column: " + g);
      }
      group_cols.push_back(static_cast<int>(*ci));
    }
    for (const SelectItem& item : stmt.items) {
      if (item.agg == AggFunc::kNone) {
        auto ci = resolve(item.column);
        if (!ci.has_value()) {
          return Status::InvalidArgument("unknown column: " + item.column);
        }
        const auto it = std::find(group_cols.begin(), group_cols.end(),
                                  static_cast<int>(*ci));
        if (it == group_cols.end()) {
          return Status::InvalidArgument("column " + item.column +
                                         " must appear in GROUP BY");
        }
        agg_layout.push_back(GroupedAggregator::OutputSlot{
            true, static_cast<size_t>(it - group_cols.begin())});
        continue;
      }
      AggSpec spec{item.agg, -1};
      if (item.agg != AggFunc::kCountStar) {
        auto ci = resolve(item.column);
        if (!ci.has_value()) {
          return Status::InvalidArgument("unknown column: " + item.column);
        }
        spec.col = static_cast<int>(*ci);
      }
      agg_layout.push_back(
          GroupedAggregator::OutputSlot{false, agg_specs.size()});
      agg_specs.push_back(spec);
    }
  }

  // Survivors are borrowed pointers into the heap — stable because the
  // shared latch blocks all mutation for the rest of this function — so
  // no access path copies a row to find out it matched. An aggregate with
  // neither an index nor ORDER BY (which reorders groups through
  // first-seen) skips materializing: its heap scan aggregates per morsel
  // below.
  const bool stream_agg = agg_path && stmt.order_by.empty();
  std::vector<ScanMatch> matches;
  HEDC_ASSIGN_OR_RETURN(
      bool used_index,
      FilterRows(table, where.get(), /*scan_heap=*/!stream_agg, &matches));

  // ORDER BY before projection/limit (and before aggregation, where it
  // fixes the groups' first-seen order).
  if (!stmt.order_by.empty()) {
    auto col = resolve(stmt.order_by);
    if (!col.has_value()) {
      return Status::InvalidArgument("unknown ORDER BY column: " +
                                     stmt.order_by);
    }
    size_t c = *col;
    bool desc = stmt.order_desc;
    std::stable_sort(matches.begin(), matches.end(),
                     [c, desc](const ScanMatch& a, const ScanMatch& b) {
                       int cmp = (*a.row)[c].Compare((*b.row)[c]);
                       return desc ? cmp > 0 : cmp < 0;
                     });
  }

  ResultSet result;

  if (agg_path) {
    // Groups preserve first-seen order: row-id order when streamed, else
    // the order of the (possibly sorted) match sequence.
    GroupedAggregator agg(group_cols, agg_specs);
    if (stream_agg && !used_index) {
      ScanStats scan;
      HEDC_RETURN_IF_ERROR(
          ScanAggregate(*table, where.get(), HeapScanOptions(), &agg, &scan));
      CountHeapScan(scan);
    } else {
      int64_t seq = 0;
      for (const ScanMatch& m : matches) agg.AccumulateRow(*m.row, seq++);
    }
    for (const SelectItem& item : stmt.items) {
      result.columns.push_back(item.alias);
    }
    agg.Emit(agg_layout, /*empty_input_row=*/group_cols.empty(),
             &result.rows);
  } else {
    // Plain projection.
    std::vector<int> proj;
    if (stmt.star) {
      for (size_t i = 0; i < schema.num_columns(); ++i) {
        result.columns.push_back(schema.column(i).name);
        proj.push_back(static_cast<int>(i));
      }
    } else {
      for (const SelectItem& item : stmt.items) {
        auto ci = resolve(item.column);
        if (!ci.has_value()) {
          return Status::InvalidArgument("unknown column: " + item.column);
        }
        result.columns.push_back(item.alias);
        proj.push_back(static_cast<int>(*ci));
      }
    }
    // Only LIMIT-many rows are materialized when no ORDER BY reshuffles
    // the match order afterwards.
    size_t cap = matches.size();
    if (stmt.limit >= 0 && stmt.order_by.empty()) {
      cap = std::min<size_t>(cap, static_cast<size_t>(stmt.limit));
    }
    result.rows.reserve(cap);
    for (const ScanMatch& m : matches) {
      if (result.rows.size() >= cap) break;
      Row out_row;
      out_row.reserve(proj.size());
      for (int c : proj) out_row.push_back((*m.row)[c]);
      result.rows.push_back(std::move(out_row));
    }
  }

  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(stmt.limit);
  }
  return result;
}

Result<ResultSet> Database::ExecInsert(const InsertStmt& stmt,
                                       const std::vector<Value>& params) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  std::unique_lock<std::shared_mutex> latch(entry->latch);
  Table* table = &entry->table;
  const Schema& schema = table->schema();

  // Column mapping.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      auto ci = schema.ColumnIndex(name);
      if (!ci.has_value()) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      targets.push_back(*ci);
    }
  }

  ResultSet result;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < value_exprs.size(); ++i) {
      std::unique_ptr<Expr> e = value_exprs[i]->Clone();
      HEDC_RETURN_IF_ERROR(BindExpr(e.get(), schema, params));
      HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, Row{}));
      row[targets[i]] = std::move(v);
    }
    HEDC_ASSIGN_OR_RETURN(int64_t row_id, table->Insert(std::move(row)));
    Result<Row> inserted = table->Get(row_id);
    RecordMutation(WalRecord{WalOp::kInsert, table->name(), row_id,
                             inserted.ok() ? inserted.value() : Row{},
                             Schema{}, "", "", false},
                   UndoOp{WalOp::kInsert, table->name(), row_id, {}});
    result.last_insert_row_id = row_id;
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecUpdate(const UpdateStmt& stmt,
                                       const std::vector<Value>& params) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  std::unique_lock<std::shared_mutex> latch(entry->latch);
  Table* table = &entry->table;
  const Schema& schema = table->schema();

  std::unique_ptr<Expr> where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    HEDC_RETURN_IF_ERROR(BindExpr(where.get(), schema, params));
  }
  // Bind assignment expressions.
  std::vector<std::pair<size_t, std::unique_ptr<Expr>>> assigns;
  for (const auto& [col_name, expr] : stmt.assignments) {
    auto ci = schema.ColumnIndex(col_name);
    if (!ci.has_value()) {
      return Status::InvalidArgument("unknown column: " + col_name);
    }
    std::unique_ptr<Expr> bound = expr->Clone();
    HEDC_RETURN_IF_ERROR(BindExpr(bound.get(), schema, params));
    assigns.emplace_back(*ci, std::move(bound));
  }

  // Matching rows are collected before the first mutation, under the
  // exclusive latch, so they need no re-check. Row pointers die with
  // the first mutation; the loop re-finds each row by id.
  std::vector<ScanMatch> matches;
  HEDC_RETURN_IF_ERROR(
      FilterRows(table, where.get(), /*scan_heap=*/true, &matches).status());

  ResultSet result;
  for (const ScanMatch& m : matches) {
    const int64_t row_id = m.row_id;
    const Row* current = table->Find(row_id);
    if (current == nullptr) continue;
    Row updated = *current;
    for (const auto& [col, expr] : assigns) {
      HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, *current));
      updated[col] = std::move(v);
    }
    // `current` dies with this Update; no use after it below.
    Row old_row;
    HEDC_RETURN_IF_ERROR(table->Update(row_id, std::move(updated), &old_row));
    Result<Row> new_row = table->Get(row_id);
    RecordMutation(
        WalRecord{WalOp::kUpdate, table->name(), row_id,
                  new_row.ok() ? new_row.value() : Row{}, Schema{}, "", "",
                  false},
        UndoOp{WalOp::kUpdate, table->name(), row_id, std::move(old_row)});
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecDelete(const DeleteStmt& stmt,
                                       const std::vector<Value>& params) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  std::unique_lock<std::shared_mutex> latch(entry->latch);
  Table* table = &entry->table;
  const Schema& schema = table->schema();

  std::unique_ptr<Expr> where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    HEDC_RETURN_IF_ERROR(BindExpr(where.get(), schema, params));
  }

  std::vector<ScanMatch> matches;
  HEDC_RETURN_IF_ERROR(
      FilterRows(table, where.get(), /*scan_heap=*/true, &matches).status());

  ResultSet result;
  for (const ScanMatch& m : matches) {
    const int64_t row_id = m.row_id;
    Row old_row;
    HEDC_RETURN_IF_ERROR(table->Delete(row_id, &old_row));
    RecordMutation(
        WalRecord{WalOp::kDelete, table->name(), row_id, Row{}, Schema{},
                  "", "", false},
        UndoOp{WalOp::kDelete, table->name(), row_id, std::move(old_row)});
    ++result.affected_rows;
  }
  return result;
}

Result<ResultSet> Database::ExecCreateTable(const CreateTableStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  std::string key = NormalizeName(stmt.table);
  if (tables_.count(key) > 0) {
    if (stmt.if_not_exists) return ResultSet{};
    return Status::AlreadyExists("table " + stmt.table);
  }
  tables_[key] = std::make_unique<TableEntry>(stmt.table, stmt.schema,
                                              exec_options_.morsel_rows);
  LogOrBuffer(WalRecord{WalOp::kCreateTable, stmt.table, 0, Row{},
                        stmt.schema, "", "", false});
  return ResultSet{};
}

Result<ResultSet> Database::ExecCreateIndex(const CreateIndexStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  TableEntry* entry = FindEntry(stmt.table);
  if (entry == nullptr) return Status::NotFound("table " + stmt.table);
  HEDC_RETURN_IF_ERROR(entry->table.CreateIndex(
      stmt.index_name, stmt.column,
      stmt.hash ? IndexKind::kHash : IndexKind::kBTree));
  LogOrBuffer(WalRecord{WalOp::kCreateIndex, stmt.table, 0, Row{}, Schema{},
                        stmt.index_name, stmt.column, stmt.hash});
  return ResultSet{};
}

Result<ResultSet> Database::ExecDropTable(const DropTableStmt& stmt) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  std::string key = NormalizeName(stmt.table);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    if (stmt.if_exists) return ResultSet{};
    return Status::NotFound("table " + stmt.table);
  }
  tables_.erase(it);
  LogOrBuffer(WalRecord{WalOp::kDropTable, stmt.table, 0, Row{}, Schema{},
                        "", "", false});
  return ResultSet{};
}

}  // namespace hedc::db
