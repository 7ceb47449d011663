// Joined-SELECT execution: name resolution over the FROM list, the
// cost-based equi-join planner, partitioned hash tables, and the morsel
// pipeline that probes them (DESIGN.md §4h).
#include "db/join.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/strings.h"
#include "db/data_chunk.h"
#include "db/database.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/vectorized.h"

namespace hedc::db {

// ---------------------------------------------------------------------------
// JoinSchema

Status JoinSchema::AddTable(const std::string& name, const Table* table) {
  for (const TableRef& t : tables_) {
    if (EqualsIgnoreCase(t.name, name)) {
      return Status::InvalidArgument("duplicate table in join: " + name);
    }
  }
  tables_.push_back(TableRef{name, table, total_columns_});
  total_columns_ += table->schema().num_columns();
  return Status::Ok();
}

Result<size_t> JoinSchema::ResolveColumn(const std::string& name) const {
  const size_t dot = name.find('.');
  if (dot != std::string::npos) {
    const std::string table_name = name.substr(0, dot);
    const std::string column_name = name.substr(dot + 1);
    for (const TableRef& t : tables_) {
      if (!EqualsIgnoreCase(t.name, table_name)) continue;
      auto ci = t.table->schema().ColumnIndex(column_name);
      if (!ci.has_value()) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      return t.offset + *ci;
    }
    return Status::InvalidArgument("unknown table in column reference: " +
                                   name);
  }
  size_t hits = 0;
  size_t found = 0;
  for (const TableRef& t : tables_) {
    auto ci = t.table->schema().ColumnIndex(name);
    if (!ci.has_value()) continue;
    ++hits;
    found = t.offset + *ci;
  }
  if (hits > 1) {
    return Status::InvalidArgument("ambiguous column in join: " + name);
  }
  if (hits == 0) return Status::InvalidArgument("unknown column: " + name);
  return found;
}

size_t JoinSchema::TableOfColumn(size_t flat) const {
  for (size_t i = tables_.size(); i-- > 1;) {
    if (flat >= tables_[i].offset) return i;
  }
  return 0;
}

size_t JoinSchema::LocalColumn(size_t flat) const {
  return flat - tables_[TableOfColumn(flat)].offset;
}

const ColumnDef& JoinSchema::column(size_t flat) const {
  const TableRef& t = tables_[TableOfColumn(flat)];
  return t.table->schema().column(flat - t.offset);
}

std::string JoinSchema::ColumnDisplayName(size_t flat) const {
  const TableRef& owner = tables_[TableOfColumn(flat)];
  const std::string& bare = column(flat).name;
  size_t hits = 0;
  for (const TableRef& t : tables_) {
    if (t.table->schema().ColumnIndex(bare).has_value()) ++hits;
  }
  if (hits > 1) return owner.name + "." + bare;
  return bare;
}

// ---------------------------------------------------------------------------
// Binding and qualifier rewriting

Status BindExprJoined(Expr* expr, const JoinSchema& schema,
                      const std::vector<Value>& params) {
  switch (expr->kind) {
    case Expr::Kind::kLiteral:
      return Status::Ok();
    case Expr::Kind::kColumn: {
      HEDC_ASSIGN_OR_RETURN(size_t flat, schema.ResolveColumn(expr->column));
      expr->column_index = static_cast<int>(flat);
      return Status::Ok();
    }
    case Expr::Kind::kParam: {
      if (expr->param_index < 0 ||
          expr->param_index >= static_cast<int>(params.size())) {
        return Status::InvalidArgument(
            StrFormat("parameter %d not bound", expr->param_index + 1));
      }
      expr->literal = params[expr->param_index];
      expr->kind = Expr::Kind::kLiteral;
      return Status::Ok();
    }
    case Expr::Kind::kUnary:
      return BindExprJoined(expr->left.get(), schema, params);
    case Expr::Kind::kBinary:
      HEDC_RETURN_IF_ERROR(BindExprJoined(expr->left.get(), schema, params));
      return BindExprJoined(expr->right.get(), schema, params);
    case Expr::Kind::kInList: {
      HEDC_RETURN_IF_ERROR(BindExprJoined(expr->left.get(), schema, params));
      for (auto& item : expr->list) {
        HEDC_RETURN_IF_ERROR(BindExprJoined(item.get(), schema, params));
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable expr kind");
}

std::string StripQualifier(const std::string& name, const std::string& table) {
  const size_t dot = name.find('.');
  if (dot == std::string::npos) return name;
  if (EqualsIgnoreCase(name.substr(0, dot), table)) return name.substr(dot + 1);
  return name;
}

void StripQualifiers(Expr* expr, const std::string& table) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) {
    expr->column = StripQualifier(expr->column, table);
  }
  StripQualifiers(expr->left.get(), table);
  StripQualifiers(expr->right.get(), table);
  for (auto& item : expr->list) StripQualifiers(item.get(), table);
}

Value CanonicalJoinKey(const Value& v, bool coerce_numeric) {
  if (!coerce_numeric || v.is_null()) return v;
  return Value::Real(v.AsReal());
}

// ---------------------------------------------------------------------------
// Planner

namespace {

// FROM-order bitmask of the tables a bound subtree references.
void CollectTableMask(const Expr* e, const JoinSchema& js, uint32_t* mask) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn && e->column_index >= 0) {
    *mask |= 1u << js.TableOfColumn(static_cast<size_t>(e->column_index));
  }
  CollectTableMask(e->left.get(), js, mask);
  CollectTableMask(e->right.get(), js, mask);
  for (const auto& item : e->list) CollectTableMask(item.get(), js, mask);
}

// col = col with the two columns in different tables.
bool IsJoinEdge(const Expr* e, const JoinSchema& js, size_t* flat_a,
                size_t* flat_b) {
  if (e->kind != Expr::Kind::kBinary || e->bin_op != BinOp::kEq) return false;
  const Expr* l = e->left.get();
  const Expr* r = e->right.get();
  if (l == nullptr || r == nullptr) return false;
  if (l->kind != Expr::Kind::kColumn || r->kind != Expr::Kind::kColumn) {
    return false;
  }
  if (l->column_index < 0 || r->column_index < 0) return false;
  const size_t a = static_cast<size_t>(l->column_index);
  const size_t b = static_cast<size_t>(r->column_index);
  if (js.TableOfColumn(a) == js.TableOfColumn(b)) return false;
  *flat_a = a;
  *flat_b = b;
  return true;
}

// Rewrites flat combined-row column indexes to table-local ones.
void ShiftToLocal(Expr* e, size_t offset) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kColumn && e->column_index >= 0) {
    e->column_index -= static_cast<int>(offset);
  }
  ShiftToLocal(e->left.get(), offset);
  ShiftToLocal(e->right.get(), offset);
  for (auto& item : e->list) ShiftToLocal(item.get(), offset);
}

std::unique_ptr<Expr> FoldAnd(std::vector<std::unique_ptr<Expr>> conjuncts) {
  std::unique_ptr<Expr> acc;
  for (auto& c : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(c);
    } else {
      acc = Expr::Binary(BinOp::kAnd, std::move(acc), std::move(c));
    }
  }
  return acc;
}

// Selectivity estimate for one table under its pushed-down predicate:
// exact index-candidate count when an equality hits an index, else the
// sum of live rows in zone-surviving morsels, else the live row count.
int64_t EstimateTableRows(const Table& t, const Expr* local_where,
                          bool zone_maps) {
  const int64_t n = static_cast<int64_t>(t.num_rows());
  if (local_where == nullptr) return n;
  const auto bounds = ExtractColumnBounds(local_where);
  for (const auto& [col, b] : bounds) {
    if (!b.eq.has_value()) continue;
    const IndexDef* def =
        t.FindIndex(static_cast<size_t>(col), /*need_range=*/false);
    if (def == nullptr) continue;
    std::vector<int64_t> ids;
    t.IndexLookup(*def, *b.eq, &ids);
    return static_cast<int64_t>(ids.size());
  }
  if (!zone_maps || bounds.empty()) return n;
  std::vector<const Table::Morsel*> kept;
  int64_t pruned = 0;
  PruneMorsels(t, bounds, &kept, &pruned);
  int64_t est = 0;
  for (const Table::Morsel* m : kept) est += m->live;
  return std::min(est, n);
}

// One hash-join build step in execution order.
struct JoinStepPlan {
  size_t table_idx = 0;   // FROM index of the build table
  size_t build_col = 0;   // flat key column inside the build table
  size_t probe_col = 0;   // flat key column in an earlier-available table
  bool coerce_numeric = false;
  const Expr* edge = nullptr;  // the active equality
  std::vector<const Expr*> residuals;
  int64_t est_rows = 0;
};

struct JoinPlan {
  // Owning storage for the bound predicate trees; everything below
  // borrows into these.
  std::unique_ptr<Expr> where;
  std::vector<std::unique_ptr<Expr>> ons;

  // Per FROM table: the AND of its single-table conjuncts, cloned with
  // table-local column indexes (nullptr = unfiltered), and the row
  // estimate under it.
  std::vector<std::unique_ptr<Expr>> local;
  std::vector<int64_t> est;

  size_t driver = 0;
  std::vector<JoinStepPlan> steps;
  std::vector<int> step_of_table;  // FROM index -> step index; driver = -1
};

Status PlanJoin(const SelectStmt& stmt, const JoinSchema& js,
                const std::vector<Value>& params, const ExecOptions& opts,
                JoinPlan* plan) {
  const size_t n = js.num_tables();
  if (n > 31) return Status::Unimplemented("too many tables in join");

  if (stmt.where != nullptr) {
    plan->where = stmt.where->Clone();
    HEDC_RETURN_IF_ERROR(BindExprJoined(plan->where.get(), js, params));
  }
  for (size_t i = 0; i < stmt.joins.size(); ++i) {
    auto on = stmt.joins[i].on->Clone();
    HEDC_RETURN_IF_ERROR(BindExprJoined(on.get(), js, params));
    uint32_t mask = 0;
    CollectTableMask(on.get(), js, &mask);
    // JOIN i introduces FROM table i+1; its ON clause may reference that
    // table and anything to its left.
    if ((mask & ~((1u << (i + 2)) - 1)) != 0) {
      return Status::InvalidArgument(
          "ON clause of JOIN " + stmt.joins[i].table +
          " references a table joined later");
    }
    plan->ons.push_back(std::move(on));
  }

  // Pool every AND-conjunct from WHERE and all ON clauses, then
  // classify: single-table conjuncts push down to their table's scan,
  // cross-table equalities become join-edge candidates, the rest are
  // residuals interpreted once all their tables are available.
  struct Pooled {
    const Expr* e;
    uint32_t mask;
    bool is_edge;
    size_t flat_a = 0, flat_b = 0;
  };
  std::vector<Pooled> pooled;
  {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(plan->where.get(), &conjuncts);
    for (const auto& on : plan->ons) CollectConjuncts(on.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      Pooled p{c, 0, false};
      CollectTableMask(c, js, &p.mask);
      p.is_edge = IsJoinEdge(c, js, &p.flat_a, &p.flat_b);
      pooled.push_back(p);
    }
  }

  std::vector<std::vector<std::unique_ptr<Expr>>> local_parts(n);
  for (const Pooled& p : pooled) {
    if (p.is_edge || __builtin_popcount(p.mask) > 1) continue;
    // Single-table (or column-free, e.g. a parameterized constant):
    // push to the owning table; column-free conjuncts go to table 0,
    // where a constant-false prunes the whole inner join.
    const size_t t = p.mask == 0 ? 0 : static_cast<size_t>(
                                           __builtin_ctz(p.mask));
    auto clone = p.e->Clone();
    ShiftToLocal(clone.get(), js.table(t).offset);
    local_parts[t].push_back(std::move(clone));
  }
  plan->local.resize(n);
  plan->est.resize(n);
  for (size_t t = 0; t < n; ++t) {
    plan->local[t] = FoldAnd(std::move(local_parts[t]));
    plan->est[t] = EstimateTableRows(*js.table(t).table, plan->local[t].get(),
                                     opts.zone_maps);
  }

  // Join order: the largest estimated input drives (probe side streams,
  // smaller sides build hash tables) and build steps greedily take the
  // smallest connectable estimate.
  plan->driver = static_cast<size_t>(
      std::max_element(plan->est.begin(), plan->est.end()) -
      plan->est.begin());

  uint32_t avail = 1u << plan->driver;
  plan->step_of_table.assign(n, -1);
  std::vector<const Expr*> active_edges;
  while (__builtin_popcount(avail) < static_cast<int>(n)) {
    // Tables reachable from the available set via an equality edge.
    size_t best = n;
    for (size_t t = 0; t < n; ++t) {
      if (avail & (1u << t)) continue;
      bool connectable = false;
      for (const Pooled& p : pooled) {
        if (!p.is_edge) continue;
        const size_t ta = js.TableOfColumn(p.flat_a);
        const size_t tb = js.TableOfColumn(p.flat_b);
        if ((ta == t && (avail & (1u << tb))) ||
            (tb == t && (avail & (1u << ta)))) {
          connectable = true;
          break;
        }
      }
      if (!connectable) continue;
      if (best == n || plan->est[t] < plan->est[best]) best = t;
    }
    if (best == n) {
      return Status::Unimplemented(
          "JOIN without an equality to an earlier table (cross joins are "
          "not supported)");
    }
    // Pick the active edge for this step.
    JoinStepPlan step;
    step.table_idx = best;
    for (const Pooled& p : pooled) {
      if (!p.is_edge) continue;
      const size_t ta = js.TableOfColumn(p.flat_a);
      const size_t tb = js.TableOfColumn(p.flat_b);
      if (ta == best && (avail & (1u << tb))) {
        step.build_col = p.flat_a;
        step.probe_col = p.flat_b;
      } else if (tb == best && (avail & (1u << ta))) {
        step.build_col = p.flat_b;
        step.probe_col = p.flat_a;
      } else {
        continue;
      }
      step.edge = p.e;
      break;
    }
    const bool build_text = js.column(step.build_col).type == ValueType::kText;
    const bool probe_text = js.column(step.probe_col).type == ValueType::kText;
    step.coerce_numeric = build_text != probe_text;
    step.est_rows = plan->est[best];
    plan->step_of_table[best] = static_cast<int>(plan->steps.size());
    active_edges.push_back(step.edge);
    plan->steps.push_back(std::move(step));
    avail |= 1u << best;
  }

  // Everything not pushed down and not an active edge becomes a
  // residual at the earliest step where all its tables are available.
  for (const Pooled& p : pooled) {
    if (!p.is_edge && __builtin_popcount(p.mask) <= 1) continue;
    if (std::find(active_edges.begin(), active_edges.end(), p.e) !=
        active_edges.end()) {
      continue;
    }
    int attach = -1;
    for (size_t t = 0; t < n; ++t) {
      if (p.mask & (1u << t)) attach = std::max(attach, plan->step_of_table[t]);
    }
    if (attach < 0) {
      // Both sides in the driver table can't happen (cross-table), but a
      // conjunct could in principle collapse after binding; be safe.
      attach = 0;
    }
    plan->steps[static_cast<size_t>(attach)].residuals.push_back(p.e);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Output shape

struct JoinOutput {
  bool agg = false;
  std::vector<int> group_cols;  // flat
  std::vector<AggSpec> specs;
  std::vector<GroupedAggregator::OutputSlot> layout;
  std::vector<size_t> needed;  // flat columns the aggregate reads
  std::vector<size_t> proj;    // flat, non-aggregate mode
  std::vector<std::string> columns;
  std::optional<size_t> order_col;  // flat
};

Status ResolveJoinOutput(const SelectStmt& stmt, const JoinSchema& js,
                         JoinOutput* out) {
  bool has_agg = false;
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) has_agg = true;
  }
  for (const std::string& g : stmt.group_by) {
    HEDC_ASSIGN_OR_RETURN(size_t flat, js.ResolveColumn(g));
    out->group_cols.push_back(static_cast<int>(flat));
  }
  out->agg = has_agg || !out->group_cols.empty();

  if (out->agg) {
    if (stmt.star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with aggregation");
    }
    if (!stmt.order_by.empty()) {
      return Status::Unimplemented(
          "ORDER BY on an aggregated joined SELECT");
    }
    for (const SelectItem& item : stmt.items) {
      out->columns.push_back(item.alias);
      if (item.agg == AggFunc::kNone) {
        HEDC_ASSIGN_OR_RETURN(size_t flat, js.ResolveColumn(item.column));
        const auto it = std::find(out->group_cols.begin(),
                                  out->group_cols.end(),
                                  static_cast<int>(flat));
        if (it == out->group_cols.end()) {
          return Status::InvalidArgument("column " + item.column +
                                         " must appear in GROUP BY");
        }
        out->layout.push_back(GroupedAggregator::OutputSlot{
            true, static_cast<size_t>(it - out->group_cols.begin())});
        continue;
      }
      AggSpec spec{item.agg, -1};
      if (item.agg != AggFunc::kCountStar) {
        HEDC_ASSIGN_OR_RETURN(size_t flat, js.ResolveColumn(item.column));
        spec.col = static_cast<int>(flat);
      }
      out->layout.push_back(
          GroupedAggregator::OutputSlot{false, out->specs.size()});
      out->specs.push_back(spec);
    }
    for (int c : out->group_cols) out->needed.push_back(static_cast<size_t>(c));
    for (const AggSpec& s : out->specs) {
      if (s.col >= 0) out->needed.push_back(static_cast<size_t>(s.col));
    }
    std::sort(out->needed.begin(), out->needed.end());
    out->needed.erase(std::unique(out->needed.begin(), out->needed.end()),
                      out->needed.end());
    return Status::Ok();
  }

  if (stmt.star) {
    for (size_t flat = 0; flat < js.total_columns(); ++flat) {
      out->proj.push_back(flat);
      out->columns.push_back(js.ColumnDisplayName(flat));
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      HEDC_ASSIGN_OR_RETURN(size_t flat, js.ResolveColumn(item.column));
      out->proj.push_back(flat);
      out->columns.push_back(item.alias);
    }
  }
  if (!stmt.order_by.empty()) {
    HEDC_ASSIGN_OR_RETURN(size_t flat, js.ResolveColumn(stmt.order_by));
    out->order_col = flat;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Partitioned hash table for one build side

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) == 0;
  }
};

class JoinHashTable {
 public:
  JoinHashTable(size_t local_col, bool coerce, size_t partitions)
      : local_col_(local_col),
        coerce_(coerce),
        parts_(std::max<size_t>(1, partitions)) {}

  // Builds from scan survivors. Large inputs scatter into partitions
  // serially (one hash per key), then insert partition-parallel on the
  // pool; NULL keys are dropped (NULL = x is never true).
  void Build(const std::vector<ScanMatch>& matches, ThreadPool* pool,
             int threads) {
    if (parts_.size() == 1 || static_cast<int64_t>(matches.size()) <
                                  kMinParallelBuild ||
        pool == nullptr || threads <= 1) {
      for (const ScanMatch& m : matches) InsertSerial(m.row);
      return;
    }
    std::vector<std::vector<std::pair<Value, const Row*>>> scatter(
        parts_.size());
    for (const ScanMatch& m : matches) {
      const Value& raw = (*m.row)[local_col_];
      if (raw.is_null()) continue;
      Value key = CanonicalJoinKey(raw, coerce_);
      const size_t p = key.Hash() % parts_.size();
      scatter[p].emplace_back(std::move(key), m.row);
      ++rows_;
    }
    std::atomic<size_t> next{0};
    auto work = [&] {
      size_t p;
      while ((p = next.fetch_add(1, std::memory_order_relaxed)) <
             scatter.size()) {
        for (auto& kv : scatter[p]) {
          parts_[p].map[std::move(kv.first)].push_back(kv.second);
        }
      }
    };
    std::mutex done_mu;
    std::condition_variable done_cv;
    int launched = 0;
    int done = 0;
    const int helpers =
        std::min<int>(threads - 1, static_cast<int>(parts_.size()) - 1);
    for (int i = 0; i < helpers; ++i) {
      const bool ok = pool->TrySubmit([&] {
        work();
        std::lock_guard<std::mutex> lock(done_mu);
        ++done;
        done_cv.notify_all();
      });
      if (ok) ++launched;
    }
    work();
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done == launched; });
  }

  // Matching build rows for a probe value, nullptr when none. The raw
  // value probes directly in the common case: within one comparison
  // class Value::Hash already agrees with Value::Compare.
  const std::vector<const Row*>* Probe(const Value& raw) const {
    if (raw.is_null()) return nullptr;
    if (!coerce_) return Find(raw);
    const Value canon = CanonicalJoinKey(raw, true);
    return Find(canon);
  }

  int64_t rows() const { return rows_; }

 private:
  static constexpr int64_t kMinParallelBuild = 8192;

  struct Part {
    std::unordered_map<Value, std::vector<const Row*>, ValueHasher, ValueEq>
        map;
  };

  void InsertSerial(const Row* row) {
    const Value& raw = (*row)[local_col_];
    if (raw.is_null()) return;
    Value key = CanonicalJoinKey(raw, coerce_);
    const size_t p =
        parts_.size() == 1 ? 0 : key.Hash() % parts_.size();
    parts_[p].map[std::move(key)].push_back(row);
    ++rows_;
  }

  const std::vector<const Row*>* Find(const Value& key) const {
    const Part& p =
        parts_[parts_.size() == 1 ? 0 : key.Hash() % parts_.size()];
    auto it = p.map.find(key);
    return it == p.map.end() ? nullptr : &it->second;
  }

  size_t local_col_;
  bool coerce_;
  std::vector<Part> parts_;
  int64_t rows_ = 0;
};

// Scan survivors plus the hash table built over them; `matches` keeps
// the borrowed row pointers alive for the probe phase.
struct BuiltSide {
  std::vector<ScanMatch> matches;
  std::unique_ptr<JoinHashTable> ht;
};

}  // namespace

// ---------------------------------------------------------------------------
// Database::ExecJoinedSelect

Result<ResultSet> Database::ExecJoinedSelect(const SelectStmt& stmt,
                                             const std::vector<Value>& params) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);

  // Resolve the FROM list and latch every table (shared), in ascending
  // table-name order so the hierarchy stays deadlock-free against
  // multi-latch writers (transaction rollback uses the same order).
  std::vector<std::string> names;
  names.push_back(stmt.table);
  for (const JoinClause& jc : stmt.joins) names.push_back(jc.table);
  std::vector<TableEntry*> entries;
  JoinSchema js;
  for (const std::string& name : names) {
    TableEntry* entry = FindEntry(name);
    if (entry == nullptr) return Status::NotFound("table " + name);
    entries.push_back(entry);
    HEDC_RETURN_IF_ERROR(js.AddTable(name, &entry->table));
  }
  std::vector<TableEntry*> latch_order = entries;
  std::sort(latch_order.begin(), latch_order.end(),
            [](const TableEntry* a, const TableEntry* b) {
              return ToLower(a->table.name()) < ToLower(b->table.name());
            });
  std::vector<std::shared_lock<std::shared_mutex>> latches;
  latches.reserve(latch_order.size());
  for (TableEntry* e : latch_order) latches.emplace_back(e->latch);

  stats_.joins.fetch_add(1, std::memory_order_relaxed);

  JoinPlan plan;
  HEDC_RETURN_IF_ERROR(PlanJoin(stmt, js, params, exec_options_, &plan));
  JoinOutput out;
  HEDC_RETURN_IF_ERROR(ResolveJoinOutput(stmt, js, &out));

  const size_t nsteps = plan.steps.size();
  const size_t total_cols = js.total_columns();

  // --- Build phase: hash tables over every non-driver table, each built
  // from its table's survivors under the pushed-down local predicate.
  const size_t partitions = static_cast<size_t>(
      std::clamp(exec_options_.join_partitions, 1, 64));
  std::vector<BuiltSide> built(nsteps);
  for (size_t s = 0; s < nsteps; ++s) {
    const JoinStepPlan& step = plan.steps[s];
    HEDC_RETURN_IF_ERROR(FilterRows(&entries[step.table_idx]->table,
                                    plan.local[step.table_idx].get(),
                                    /*scan_heap=*/true, &built[s].matches)
                             .status());
    built[s].ht = std::make_unique<JoinHashTable>(
        js.LocalColumn(step.build_col), step.coerce_numeric, partitions);
    built[s].ht->Build(
        built[s].matches,
        exec_options_.scan_threads > 1 ? ScanPool() : nullptr,
        exec_options_.scan_threads);
  }

  // --- Probe-side tuple machinery shared by both drivers. A tuple is a
  // driver row plus one matched build row per completed step; tuples
  // are flat arrays (`pos` into the driver batch, `rows` with stride
  // nsteps) so the per-morsel pipeline allocates nothing after warmup.
  struct TupleBuf {
    std::vector<uint32_t> pos;
    std::vector<const Row*> rows;  // stride = nsteps
  };

  const size_t driver_offset = js.table(plan.driver).offset;
  const Table& driver_table = *js.table(plan.driver).table;
  const size_t driver_cols = driver_table.schema().num_columns();

  // Flat combined-row value of `flat` for tuple k of `t` whose driver
  // row is `drow`.
  auto value_at = [&](const Row& drow, const TupleBuf& t, size_t k,
                      size_t flat) -> const Value& {
    const size_t ti = js.TableOfColumn(flat);
    const size_t local = js.LocalColumn(flat);
    if (ti == plan.driver) return drow[local];
    return (*t.rows[k * nsteps +
                    static_cast<size_t>(plan.step_of_table[ti])])[local];
  };

  // Assembles the combined row for residual interpretation: driver
  // columns, completed steps, plus the candidate row for step `s`.
  // Unavailable tables keep stale values; residual attachment
  // guarantees they are never read.
  auto assemble = [&](const Row& drow, const TupleBuf& t, size_t k, size_t s,
                      const Row* candidate, Row* scratch) {
    for (size_t c = 0; c < driver_cols; ++c) {
      (*scratch)[driver_offset + c] = drow[c];
    }
    for (size_t s2 = 0; s2 <= s; ++s2) {
      const Row* brow =
          s2 == s ? candidate : t.rows[k * nsteps + s2];
      const size_t off = js.table(plan.steps[s2].table_idx).offset;
      for (size_t c = 0; c < brow->size(); ++c) {
        (*scratch)[off + c] = (*brow)[c];
      }
    }
  };

  // Runs the join steps over one batch of driver rows (`cur.pos`
  // preloaded with surviving batch indexes), leaving surviving tuples
  // in `cur`. `driver_row(i)` maps a batch index to its Row.
  auto run_steps = [&](const std::function<const Row&(uint32_t)>& driver_row,
                       TupleBuf* cur, TupleBuf* next,
                       Row* scratch) -> Status {
    for (size_t s = 0; s < nsteps; ++s) {
      const JoinStepPlan& step = plan.steps[s];
      const JoinHashTable& ht = *built[s].ht;
      next->pos.clear();
      next->rows.clear();
      const size_t ntuples = cur->pos.size();
      for (size_t k = 0; k < ntuples; ++k) {
        const Row& drow = driver_row(cur->pos[k]);
        const Value& key = value_at(drow, *cur, k, step.probe_col);
        const std::vector<const Row*>* hits = ht.Probe(key);
        if (hits == nullptr) continue;
        for (const Row* brow : *hits) {
          if (!step.residuals.empty()) {
            assemble(drow, *cur, k, s, brow, scratch);
            bool keep = true;
            for (const Expr* res : step.residuals) {
              HEDC_ASSIGN_OR_RETURN(Value v, EvalExpr(*res, *scratch));
              if (!v.AsBool()) {
                keep = false;
                break;
              }
            }
            if (!keep) continue;
          }
          next->pos.push_back(cur->pos[k]);
          for (size_t s2 = 0; s2 < nsteps; ++s2) {
            next->rows.push_back(s2 < s ? cur->rows[k * nsteps + s2]
                                        : (s2 == s ? brow : nullptr));
          }
        }
      }
      std::swap(*cur, *next);
    }
    return Status::Ok();
  };

  // --- Terminal state. Aggregation accumulates into worker-local
  // GroupedAggregator forks; projection collects per-batch row vectors
  // merged in driver order (a trailing sort-key column is appended when
  // ORDER BY reshuffles afterwards).
  GroupedAggregator agg_proto(out.group_cols, out.specs);
  const bool keyed_sort = out.order_col.has_value();

  auto emit_tuples = [&](const std::function<const Row&(uint32_t)>& driver_row,
                         const std::function<int64_t(uint32_t)>& driver_id,
                         const TupleBuf& cur, GroupedAggregator* agg,
                         Row* scratch, std::vector<Row>* rows_out) {
    const size_t ntuples = cur.pos.size();
    for (size_t k = 0; k < ntuples; ++k) {
      const Row& drow = driver_row(cur.pos[k]);
      if (out.agg) {
        for (size_t flat : out.needed) {
          (*scratch)[flat] = value_at(drow, cur, k, flat);
        }
        agg->AccumulateRow(*scratch, driver_id(cur.pos[k]));
        continue;
      }
      Row r;
      r.reserve(out.proj.size() + (keyed_sort ? 1 : 0));
      for (size_t flat : out.proj) r.push_back(value_at(drow, cur, k, flat));
      if (keyed_sort) r.push_back(value_at(drow, cur, k, *out.order_col));
      rows_out->push_back(std::move(r));
    }
  };

  GroupedAggregator agg_total = agg_proto.Fork();
  std::vector<Row> plain_rows;

  const Expr* driver_where = plan.local[plan.driver].get();
  std::vector<ScanMatch> driver_matches;
  HEDC_ASSIGN_OR_RETURN(
      bool driver_used_index,
      FilterRows(&entries[plan.driver]->table, driver_where,
                 /*scan_heap=*/false, &driver_matches));

  if (driver_used_index) {
    // Index-driven probe: the candidates stream serially, in index
    // order, through the step pipeline as one batch.
    TupleBuf cur, next;
    Row scratch(total_cols);
    auto driver_row = [&](uint32_t i) -> const Row& {
      return *driver_matches[i].row;
    };
    auto driver_id = [&](uint32_t i) -> int64_t {
      return driver_matches[i].row_id;
    };
    cur.pos.resize(driver_matches.size());
    std::iota(cur.pos.begin(), cur.pos.end(), 0);
    HEDC_RETURN_IF_ERROR(run_steps(driver_row, &cur, &next, &scratch));
    emit_tuples(driver_row, driver_id, cur, &agg_total, &scratch,
                &plain_rows);
  } else {
    // Morsel-driven probe over the driver table's heap: the local
    // predicate compiled to filter kernels, join steps probed per
    // chunk.
    const FilterPlan fplan = CompileFilter(driver_where);
    std::vector<const Table::Morsel*> morsels;
    if (exec_options_.zone_maps && driver_where != nullptr) {
      const auto bounds = ExtractColumnBounds(driver_where);
      if (!bounds.empty()) {
        ScanStats pruning;
        PruneMorsels(driver_table, bounds, &morsels, &pruning.morsels_pruned);
        CountHeapScan(pruning);
      } else {
        driver_table.ListMorsels(&morsels);
      }
    } else {
      driver_table.ListMorsels(&morsels);
    }

    // Per-morsel worker body; projection output lands in the morsel's
    // slot so the merged result preserves driver row order.
    auto probe_morsel = [&](const Table::Morsel& m, DataChunk* chunk,
                            std::vector<uint32_t>* sel, TupleBuf* cur,
                            TupleBuf* next, Row* scratch,
                            GroupedAggregator* agg,
                            std::vector<Row>* rows_out) -> Status {
      driver_table.FillChunk(m, chunk);
      sel->resize(chunk->size());
      std::iota(sel->begin(), sel->end(), 0);
      HEDC_RETURN_IF_ERROR(ApplyFilter(fplan, chunk, sel));
      ScanStats scan;
      scan.rows_scanned = static_cast<int64_t>(chunk->size());
      scan.rows_matched = static_cast<int64_t>(sel->size());
      CountHeapScan(scan);
      cur->pos = *sel;
      auto driver_row = [&](uint32_t i) -> const Row& {
        return chunk->row(i);
      };
      auto driver_id = [&](uint32_t i) -> int64_t {
        return chunk->row_id(i);
      };
      HEDC_RETURN_IF_ERROR(run_steps(driver_row, cur, next, scratch));
      emit_tuples(driver_row, driver_id, *cur, agg, scratch, rows_out);
      return Status::Ok();
    };

    const ScanOptions sopts = HeapScanOptions();
    const int threads =
        sopts.pool != nullptr ? PlannedScanThreads(driver_table, sopts) : 1;

    if (threads <= 1 || morsels.size() <= 1) {
      DataChunk chunk;
      std::vector<uint32_t> sel;
      TupleBuf cur, next;
      Row scratch(total_cols);
      for (const Table::Morsel* m : morsels) {
        HEDC_RETURN_IF_ERROR(probe_morsel(*m, &chunk, &sel, &cur, &next,
                                          &scratch, &agg_total,
                                          &plain_rows));
      }
    } else {
      std::atomic<size_t> next_morsel{0};
      std::atomic<bool> stop{false};
      std::vector<GroupedAggregator> partials;
      partials.reserve(static_cast<size_t>(threads));
      for (int t = 0; t < threads; ++t) partials.push_back(agg_proto.Fork());
      std::vector<std::vector<Row>> slots(morsels.size());
      std::mutex err_mu;
      Status first_error = Status::Ok();

      auto worker = [&](int t) {
        DataChunk chunk;
        std::vector<uint32_t> sel;
        TupleBuf cur, nxt;
        Row scratch(total_cols);
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t i =
              next_morsel.fetch_add(1, std::memory_order_relaxed);
          if (i >= morsels.size()) break;
          Status s = probe_morsel(*morsels[i], &chunk, &sel, &cur, &nxt,
                                  &scratch, &partials[t], &slots[i]);
          if (!s.ok()) {
            {
              std::lock_guard<std::mutex> lock(err_mu);
              if (first_error.ok()) first_error = std::move(s);
            }
            stop.store(true, std::memory_order_relaxed);
            break;
          }
        }
      };

      std::mutex done_mu;
      std::condition_variable done_cv;
      int launched = 0;
      int done = 0;
      for (int t = 1; t < threads; ++t) {
        const bool ok = sopts.pool->TrySubmit([&, t] {
          worker(t);
          std::lock_guard<std::mutex> lock(done_mu);
          ++done;
          done_cv.notify_all();
        });
        if (ok) ++launched;
      }
      worker(0);
      {
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return done == launched; });
      }
      HEDC_RETURN_IF_ERROR(first_error);
      for (const GroupedAggregator& p : partials) agg_total.MergeFrom(p);
      for (std::vector<Row>& s : slots) {
        for (Row& r : s) plain_rows.push_back(std::move(r));
      }
    }
  }

  // --- Emit.
  ResultSet result;
  result.columns = out.columns;
  if (out.agg) {
    agg_total.Emit(out.layout, /*empty_input_row=*/out.group_cols.empty(),
                   &result.rows);
  } else {
    if (keyed_sort) {
      const size_t key_idx = out.proj.size();
      const bool desc = stmt.order_desc;
      std::stable_sort(plain_rows.begin(), plain_rows.end(),
                       [key_idx, desc](const Row& a, const Row& b) {
                         const int cmp = a[key_idx].Compare(b[key_idx]);
                         return desc ? cmp > 0 : cmp < 0;
                       });
      for (Row& r : plain_rows) r.pop_back();
    }
    result.rows = std::move(plain_rows);
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Database::ExplainJoinedSelect

Result<std::vector<std::string>> Database::ExplainJoinedSelect(
    const SelectStmt& stmt, const std::vector<Value>& params) {
  std::shared_lock<std::shared_mutex> catalog(catalog_mu_);
  std::vector<std::string> names;
  names.push_back(stmt.table);
  for (const JoinClause& jc : stmt.joins) names.push_back(jc.table);
  std::vector<TableEntry*> entries;
  JoinSchema js;
  for (const std::string& name : names) {
    TableEntry* entry = FindEntry(name);
    if (entry == nullptr) return Status::NotFound("table " + name);
    entries.push_back(entry);
    HEDC_RETURN_IF_ERROR(js.AddTable(name, &entry->table));
  }
  std::vector<TableEntry*> latch_order = entries;
  std::sort(latch_order.begin(), latch_order.end(),
            [](const TableEntry* a, const TableEntry* b) {
              return ToLower(a->table.name()) < ToLower(b->table.name());
            });
  std::vector<std::shared_lock<std::shared_mutex>> latches;
  latches.reserve(latch_order.size());
  for (TableEntry* e : latch_order) latches.emplace_back(e->latch);

  JoinPlan plan;
  HEDC_RETURN_IF_ERROR(PlanJoin(stmt, js, params, exec_options_, &plan));
  JoinOutput out;
  HEDC_RETURN_IF_ERROR(ResolveJoinOutput(stmt, js, &out));

  std::vector<std::string> pipeline;
  // Driver access: mirrors the executor's CollectIndexCandidates
  // decision without touching the stats counters.
  const Expr* dw = plan.local[plan.driver].get();
  bool driver_indexed = false;
  if (dw != nullptr) {
    for (const auto& [col, b] : ExtractColumnBounds(dw)) {
      const Table& t = *js.table(plan.driver).table;
      if ((b.eq.has_value() &&
           t.FindIndex(static_cast<size_t>(col), false) != nullptr) ||
          (b.has_range() &&
           t.FindIndex(static_cast<size_t>(col), true) != nullptr)) {
        driver_indexed = true;
        break;
      }
    }
  }
  std::string head = driver_indexed ? "INDEX SCAN " : "SCAN ";
  head += js.table(plan.driver).name;
  head += StrFormat(" (est %lld rows)",
                    static_cast<long long>(plan.est[plan.driver]));
  if (!driver_indexed) {
    ScanOptions sopts;
    sopts.threads = exec_options_.scan_threads;
    const int threads =
        PlannedScanThreads(*js.table(plan.driver).table, sopts);
    head += StrFormat(" [vectorized x%d]", threads);
  }
  pipeline.push_back(std::move(head));

  for (const JoinStepPlan& step : plan.steps) {
    std::string s = "HASH JOIN build ";
    s += js.table(step.table_idx).name;
    s += StrFormat(" (est %lld rows) ON ",
                   static_cast<long long>(step.est_rows));
    s += js.ColumnDisplayName(step.probe_col);
    s += " = ";
    s += js.ColumnDisplayName(step.build_col);
    if (!step.residuals.empty()) {
      s += StrFormat(" + %d residual", static_cast<int>(step.residuals.size()));
    }
    pipeline.push_back(std::move(s));
  }

  if (out.agg) {
    pipeline.push_back(StrFormat("GROUP AGGREGATE (%d keys, %d aggs)",
                                 static_cast<int>(out.group_cols.size()),
                                 static_cast<int>(out.specs.size())));
  } else {
    pipeline.push_back(
        StrFormat("PROJECT %d cols", static_cast<int>(out.proj.size())));
  }
  return pipeline;
}

}  // namespace hedc::db
