#include "db/explain.h"

#include <optional>
#include <unordered_map>

#include "core/strings.h"
#include "db/expr.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/table.h"
#include "db/vectorized.h"

namespace hedc::db {

std::string QueryPlan::ToString() const {
  if (joined) {
    std::string s = "PIPELINE ";
    for (size_t i = 0; i < pipeline.size(); ++i) {
      if (i > 0) s += " -> ";
      s += pipeline[i];
    }
    return s;
  }
  switch (access) {
    case Access::kFullScan:
      return StrFormat(
          "FULL SCAN %s%s [vectorized, %lld morsels, %lld pruned, "
          "%d threads]",
          table.c_str(), has_residual ? " WHERE <predicate>" : "",
          static_cast<long long>(morsel_count),
          static_cast<long long>(morsels_pruned), parallelism);
    case Access::kIndexPoint:
      return StrFormat("INDEX POINT %s.%s (%s)%s", table.c_str(),
                       column.c_str(), index_name.c_str(),
                       has_residual ? " + residual" : "");
    case Access::kIndexRange:
      return StrFormat("INDEX RANGE %s.%s (%s)%s", table.c_str(),
                       column.c_str(), index_name.c_str(),
                       has_residual ? " + residual" : "");
  }
  return "?";
}

Result<QueryPlan> ExplainSelect(Database* db, std::string_view sql,
                                const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, ParseSql(sql));
  if (stmt->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  const SelectStmt& select = stmt->select;

  if (!select.joins.empty()) {
    // Joined SELECT: the join planner reports its pipeline directly so
    // EXPLAIN and execution share one set of decisions.
    std::vector<Value> padded = params;
    padded.resize(static_cast<size_t>(stmt->num_params), Value::Int(0));
    QueryPlan plan;
    plan.joined = true;
    plan.table = select.table;
    HEDC_ASSIGN_OR_RETURN(plan.pipeline,
                          db->ExplainJoinedSelect(select, padded));
    return plan;
  }

  Table* table = db->GetTable(select.table);
  if (table == nullptr) return Status::NotFound("table " + select.table);

  QueryPlan plan;
  plan.table = table->name();

  // Fills in the full-scan strategy fields from the executor's own
  // helpers, so EXPLAIN and execution can never drift apart.
  auto finish_full_scan =
      [&](const std::unordered_map<int, ColumnBounds>& bounds) {
        plan.access = QueryPlan::Access::kFullScan;
        const ExecOptions& eopts = db->exec_options();
        plan.morsel_count = static_cast<int64_t>(table->num_morsels());
        ScanOptions sopts;
        sopts.zone_maps = eopts.zone_maps;
        sopts.threads = eopts.scan_threads;
        plan.parallelism = PlannedScanThreads(*table, sopts);
        if (eopts.zone_maps && !bounds.empty()) {
          std::vector<const Table::Morsel*> kept;
          PruneMorsels(*table, bounds, &kept, &plan.morsels_pruned);
        }
      };

  if (select.where == nullptr) {
    finish_full_scan({});
    return plan;
  }
  std::unique_ptr<Expr> where = select.where->Clone();
  // Pad parameters so planning never fails on unbound markers.
  std::vector<Value> padded = params;
  padded.resize(static_cast<size_t>(stmt->num_params), Value::Int(0));
  HEDC_RETURN_IF_ERROR(BindExpr(where.get(), table->schema(), padded));

  std::unordered_map<int, ColumnBounds> bounds =
      ExtractColumnBounds(where.get());
  plan.has_residual = true;  // the executor always re-checks the predicate

  // Same preference order as the executor: indexed equality first, then
  // indexed range, else scan.
  for (const auto& [col, b] : bounds) {
    if (!b.eq.has_value()) continue;
    const IndexDef* def =
        table->FindIndex(static_cast<size_t>(col), /*need_range=*/false);
    if (def == nullptr) continue;
    plan.access = QueryPlan::Access::kIndexPoint;
    plan.index_name = def->name;
    plan.column = table->schema().column(def->column).name;
    return plan;
  }
  for (const auto& [col, b] : bounds) {
    if (!b.has_range()) continue;
    const IndexDef* def =
        table->FindIndex(static_cast<size_t>(col), /*need_range=*/true);
    if (def == nullptr) continue;
    plan.access = QueryPlan::Access::kIndexRange;
    plan.index_name = def->name;
    plan.column = table->schema().column(def->column).name;
    return plan;
  }
  finish_full_scan(bounds);
  return plan;
}

}  // namespace hedc::db
