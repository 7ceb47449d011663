// Test-only reference evaluator for SELECT, UPDATE and DELETE.
//
// Deliberately naive: a SELECT runs nested loops over each FROM table's
// Table::Scan, keeps a combined row when every ON clause and the WHERE
// clause evaluate true, and computes GROUP BY and aggregates with a
// std::map. It shares only the parser (ParseSql), the binders
// (BindExpr, BindExprJoined) and the expression interpreter (EvalExpr)
// with the engine — none of the planner, hash join, filter kernels, zone
// maps, index access or grouped aggregator it is used to check.
#ifndef HEDC_TESTS_SQL_REFERENCE_H_
#define HEDC_TESTS_SQL_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "db/database.h"
#include "db/expr.h"
#include "db/join.h"
#include "db/sql.h"

namespace hedc::db::reference {

// A row rendered with each value's type, so Int(1) and Real(1.0) differ.
inline std::string RenderRow(const Row& row) {
  std::string s;
  for (const Value& v : row) {
    s += ValueTypeName(v.type());
    s += ':';
    s += v.AsText();
    s += '|';
  }
  return s;
}

// Every live row of `table` by row id, read through Table::Scan.
inline std::map<int64_t, Row> Heap(Database* db, const std::string& table) {
  std::map<int64_t, Row> heap;
  db->GetTable(table)->Scan([&](int64_t row_id, const Row& row) {
    heap.emplace(row_id, row);
    return true;
  });
  return heap;
}

// The rows `sql` (a SELECT) returns: sorted when it has ORDER BY,
// otherwise in nested-loop order (compare as a multiset).
inline Result<std::vector<Row>> Select(Database* db, std::string_view sql,
                                       const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> parsed, ParseSql(sql));
  if (parsed->kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("reference Select needs a SELECT");
  }
  const SelectStmt& stmt = parsed->select;
  std::vector<std::string> names{stmt.table};
  for (const JoinClause& join : stmt.joins) names.push_back(join.table);
  JoinSchema js;
  for (const std::string& name : names) {
    const Table* table = db->GetTable(name);
    if (table == nullptr) return Status::NotFound("table " + name);
    HEDC_RETURN_IF_ERROR(js.AddTable(name, table));
  }
  std::vector<std::unique_ptr<Expr>> predicates;
  for (const JoinClause& join : stmt.joins) {
    predicates.push_back(join.on->Clone());
  }
  if (stmt.where != nullptr) predicates.push_back(stmt.where->Clone());
  for (auto& p : predicates) {
    HEDC_RETURN_IF_ERROR(BindExprJoined(p.get(), js, params));
  }

  // Table i's scan nests inside table i-1's; a complete combined row
  // survives when every predicate holds on it.
  std::vector<Row> joined;
  Row combined(js.total_columns());
  Status error;
  std::function<void(size_t)> nest = [&](size_t i) {
    if (i == js.num_tables()) {
      for (const auto& p : predicates) {
        Result<Value> keep = EvalExpr(*p, combined);
        if (!keep.ok()) error = keep.status();
        if (!keep.ok() || !keep.value().AsBool()) return;
      }
      joined.push_back(combined);
      return;
    }
    const JoinSchema::TableRef& ref = js.table(i);
    ref.table->Scan([&](int64_t, const Row& row) {
      std::copy(row.begin(), row.end(),
                combined.begin() + static_cast<std::ptrdiff_t>(ref.offset));
      nest(i + 1);
      return error.ok();
    });
  };
  nest(0);
  HEDC_RETURN_IF_ERROR(error);

  if (!stmt.order_by.empty()) {
    HEDC_ASSIGN_OR_RETURN(size_t col, js.ResolveColumn(stmt.order_by));
    std::stable_sort(joined.begin(), joined.end(),
                     [&](const Row& a, const Row& b) {
                       const int cmp = a[col].Compare(b[col]);
                       return stmt.order_desc ? cmp > 0 : cmp < 0;
                     });
  }

  bool aggregated = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) aggregated = true;
  }
  std::vector<Row> out;
  if (!aggregated) {
    std::vector<size_t> cols;
    if (stmt.star) {
      for (size_t c = 0; c < js.total_columns(); ++c) cols.push_back(c);
    }
    for (const SelectItem& item : stmt.items) {
      HEDC_ASSIGN_OR_RETURN(size_t col, js.ResolveColumn(item.column));
      cols.push_back(col);
    }
    for (const Row& row : joined) {
      Row projected;
      for (size_t c : cols) projected.push_back(row[c]);
      out.push_back(std::move(projected));
    }
  } else {
    std::vector<size_t> keys;
    for (const std::string& g : stmt.group_by) {
      HEDC_ASSIGN_OR_RETURN(size_t col, js.ResolveColumn(g));
      keys.push_back(col);
    }
    std::vector<std::optional<size_t>> item_cols;  // nullopt: COUNT(*)
    for (const SelectItem& item : stmt.items) {
      if (item.agg == AggFunc::kCountStar) {
        item_cols.emplace_back();
        continue;
      }
      HEDC_ASSIGN_OR_RETURN(size_t col, js.ResolveColumn(item.column));
      item_cols.emplace_back(col);
    }
    struct Acc {
      int64_t rows = 0;
      int64_t nonnull = 0;
      double sum = 0;
      std::optional<Value> min, max;
    };
    // Per group (key values, ordered by Value::Compare): one
    // accumulator per select item.
    std::map<std::vector<Value>, std::vector<Acc>> groups;
    for (const Row& row : joined) {
      std::vector<Value> key;
      for (size_t c : keys) key.push_back(row[c]);
      std::vector<Acc>& accs = groups[key];
      accs.resize(stmt.items.size());
      for (size_t k = 0; k < stmt.items.size(); ++k) {
        Acc& a = accs[k];
        ++a.rows;
        if (!item_cols[k].has_value()) continue;
        const Value& v = row[*item_cols[k]];
        if (v.is_null()) continue;
        ++a.nonnull;
        a.sum += v.AsReal();
        if (!a.min.has_value() || v.Compare(*a.min) < 0) a.min = v;
        if (!a.max.has_value() || v.Compare(*a.max) > 0) a.max = v;
      }
    }
    // Without GROUP BY, empty input still yields one row.
    if (groups.empty() && keys.empty()) {
      groups[{}].resize(stmt.items.size());
    }
    for (const auto& [key, accs] : groups) {
      Row row;
      for (size_t k = 0; k < stmt.items.size(); ++k) {
        const Acc& a = accs[k];
        switch (stmt.items[k].agg) {
          case AggFunc::kNone: {
            const size_t pos = static_cast<size_t>(
                std::find(keys.begin(), keys.end(), *item_cols[k]) -
                keys.begin());
            row.push_back(key[pos]);
            break;
          }
          case AggFunc::kCountStar:
            row.push_back(Value::Int(a.rows));
            break;
          case AggFunc::kCount:
            row.push_back(Value::Int(a.nonnull));
            break;
          case AggFunc::kSum:
            row.push_back(a.nonnull > 0 ? Value::Real(a.sum) : Value::Null());
            break;
          case AggFunc::kAvg:
            row.push_back(a.nonnull > 0
                              ? Value::Real(a.sum /
                                            static_cast<double>(a.nonnull))
                              : Value::Null());
            break;
          case AggFunc::kMin:
            row.push_back(a.min.value_or(Value::Null()));
            break;
          case AggFunc::kMax:
            row.push_back(a.max.value_or(Value::Null()));
            break;
        }
      }
      out.push_back(std::move(row));
    }
  }
  if (stmt.limit >= 0 && out.size() > static_cast<size_t>(stmt.limit)) {
    out.resize(static_cast<size_t>(stmt.limit));
  }
  return out;
}

// What an UPDATE or DELETE should do, predicted before it runs: the rows
// its WHERE selects on a heap scan, and the heap it should leave behind
// (those rows deleted or carrying the assignments, all others as
// they were).
struct DmlPrediction {
  std::string table;
  int64_t affected_rows = 0;
  std::map<int64_t, Row> heap;
};

inline Result<DmlPrediction> PredictDml(Database* db, std::string_view sql,
                                        const std::vector<Value>& params) {
  HEDC_ASSIGN_OR_RETURN(std::unique_ptr<Statement> parsed, ParseSql(sql));
  const bool is_update = parsed->kind == Statement::Kind::kUpdate;
  if (!is_update && parsed->kind != Statement::Kind::kDelete) {
    return Status::InvalidArgument("PredictDml needs an UPDATE or DELETE");
  }
  DmlPrediction p;
  p.table = is_update ? parsed->update.table : parsed->del.table;
  const Table* table = db->GetTable(p.table);
  if (table == nullptr) return Status::NotFound("table " + p.table);
  const Schema& schema = table->schema();
  const Expr* raw_where =
      is_update ? parsed->update.where.get() : parsed->del.where.get();
  std::unique_ptr<Expr> where;
  if (raw_where != nullptr) {
    where = raw_where->Clone();
    HEDC_RETURN_IF_ERROR(BindExpr(where.get(), schema, params));
  }
  std::vector<std::pair<size_t, std::unique_ptr<Expr>>> assigns;
  if (is_update) {
    for (const auto& [name, expr] : parsed->update.assignments) {
      std::optional<size_t> col = schema.ColumnIndex(name);
      if (!col.has_value()) return Status::InvalidArgument("column " + name);
      assigns.emplace_back(*col, expr->Clone());
      HEDC_RETURN_IF_ERROR(
          BindExpr(assigns.back().second.get(), schema, params));
    }
  }

  p.heap = Heap(db, p.table);
  for (auto it = p.heap.begin(); it != p.heap.end();) {
    if (where != nullptr) {
      HEDC_ASSIGN_OR_RETURN(Value keep, EvalExpr(*where, it->second));
      if (!keep.AsBool()) {
        ++it;
        continue;
      }
    }
    ++p.affected_rows;
    if (!is_update) {
      it = p.heap.erase(it);
      continue;
    }
    Row updated = it->second;
    for (const auto& [col, expr] : assigns) {
      HEDC_ASSIGN_OR_RETURN(updated[col], EvalExpr(*expr, it->second));
    }
    it->second = std::move(updated);
    ++it;
  }
  return p;
}

}  // namespace hedc::db::reference

#endif  // HEDC_TESTS_SQL_REFERENCE_H_
