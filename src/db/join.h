// Multi-table SELECT support: joined name resolution and the hash-join
// pipeline executor (DESIGN.md §4h).
//
// A joined SELECT binds every column reference against a JoinSchema — the
// FROM-order concatenation of the participating tables' schemas — so a
// bound Expr evaluates against a "combined row" (driver columns followed
// by each joined table's columns at its offset). Qualified names
// (table.column) resolve exactly; bare names must be unambiguous across
// the FROM list.
//
// Execution (src/db/join.cc) plans one equi-join pipeline per statement:
// WHERE and ON conjuncts are pooled, single-table conjuncts are pushed
// down to their table's scan, column=column equalities become join
// edges, and everything else is a residual interpreted at the earliest
// step where all referenced tables are available. Zone-map row estimates
// pick the probe (driver) side and the build order; the driver's heap
// is probed against partitioned hash tables morsel-at-a-time on the scan
// pool (an index-driven driver streams its candidates serially).
#ifndef HEDC_DB_JOIN_H_
#define HEDC_DB_JOIN_H_

#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "db/expr.h"
#include "db/table.h"

namespace hedc::db {

// FROM-order table list with flat column offsets. Borrowed Table
// pointers: the caller holds the latches for the statement's duration.
class JoinSchema {
 public:
  struct TableRef {
    std::string name;    // as written in the statement
    const Table* table;
    size_t offset;       // first flat column index of this table
  };

  // Appends a table; rejects duplicates (self-joins need aliases the
  // dialect does not have).
  Status AddTable(const std::string& name, const Table* table);

  size_t num_tables() const { return tables_.size(); }
  const TableRef& table(size_t i) const { return tables_[i]; }
  size_t total_columns() const { return total_columns_; }

  // Flat index for `name` ("table.column" resolves exactly; a bare
  // column must match exactly one table). InvalidArgument on ambiguity,
  // NotFound on no match.
  Result<size_t> ResolveColumn(const std::string& name) const;

  // FROM-order index of the table owning flat column `flat`.
  size_t TableOfColumn(size_t flat) const;
  // Column index within its owning table.
  size_t LocalColumn(size_t flat) const;
  // Declared type of a flat column.
  const ColumnDef& column(size_t flat) const;
  // Display name: bare column name if unique across the FROM list,
  // otherwise table-qualified.
  std::string ColumnDisplayName(size_t flat) const;

 private:
  std::vector<TableRef> tables_;
  size_t total_columns_ = 0;
};

// BindExpr against a JoinSchema: column references resolve to flat
// combined-row indexes, '?' parameters are substituted as literals.
Status BindExprJoined(Expr* expr, const JoinSchema& schema,
                      const std::vector<Value>& params);

// Rewrites "table.column" references to bare "column" in place when the
// qualifier names `table` (case-insensitive); used by the single-table
// executor so qualified names keep working without a JoinSchema.
void StripQualifiers(Expr* expr, const std::string& table);

// Single-name variant of the rewrite above.
std::string StripQualifier(const std::string& name, const std::string& table);

// Canonicalizes a join-key value so that hashing agrees with
// Value::Compare across the physical types the two key columns can
// hold. Within one comparison class (numeric/numeric or text/text)
// Value::Hash already matches Compare; a text-vs-numeric column pairing
// compares on the double axis, so both sides canonicalize to Real.
// NULL keys stay NULL (the caller drops them: NULL = x is false).
Value CanonicalJoinKey(const Value& v, bool coerce_numeric);

}  // namespace hedc::db

#endif  // HEDC_DB_JOIN_H_
