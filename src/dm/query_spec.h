// Collection-style query API (§5.4).
//
// "The DM API has no provisions for regular SQL calls. It uses Java
// collection objects instead. During query processing these objects are
// parsed, analyzed, verified and transformed into regular SQL queries
// suitable for the target database and schema." QuerySpec is that
// collection object: validated against an allowlist of tables and
// rendered to parameterized SQL, so queries can be adapted without
// touching the API.
#ifndef HEDC_DM_QUERY_SPEC_H_
#define HEDC_DM_QUERY_SPEC_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "db/database.h"

namespace hedc::dm {

enum class CondOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };

struct Condition {
  std::string field;
  CondOp op = CondOp::kEq;
  db::Value value;
};

class QuerySpec {
 public:
  explicit QuerySpec(std::string table) : table_(std::move(table)) {}

  QuerySpec& Select(std::string field) {
    fields_.push_back(std::move(field));
    return *this;
  }
  // Inner join: FROM table_ JOIN `table` ON `left_field` = `right_field`.
  // Name fields of a join as `table.column`. The join runs on the DBMS
  // that serves table_, which must also hold `table`.
  QuerySpec& Join(std::string table, std::string left_field,
                  std::string right_field) {
    join_table_ = std::move(table);
    join_left_ = std::move(left_field);
    join_right_ = std::move(right_field);
    return *this;
  }
  QuerySpec& Where(std::string field, CondOp op, db::Value value) {
    conditions_.push_back({std::move(field), op, std::move(value)});
    return *this;
  }
  QuerySpec& OrderBy(std::string field, bool descending = false) {
    order_by_ = std::move(field);
    order_desc_ = descending;
    return *this;
  }
  QuerySpec& Limit(int64_t n) {
    limit_ = n;
    return *this;
  }
  QuerySpec& CountOnly() {
    count_only_ = true;
    return *this;
  }
  // Extra raw predicate AND-ed in (used for session view predicates).
  QuerySpec& RawPredicate(std::string predicate) {
    raw_predicate_ = std::move(predicate);
    return *this;
  }

  const std::string& table() const { return table_; }

  // Verifies table and field names (identifier charset; a field may be
  // qualified as `table.column`) and renders SQL with '?' parameters; the
  // bound values come out through `params`.
  Result<std::string> ToSql(std::vector<db::Value>* params) const;

 private:
  std::string table_;
  std::string join_table_;  // empty = no join
  std::string join_left_;
  std::string join_right_;
  std::vector<std::string> fields_;  // empty = *
  std::vector<Condition> conditions_;
  std::string order_by_;
  bool order_desc_ = false;
  int64_t limit_ = -1;
  bool count_only_ = false;
  std::string raw_predicate_;
};

}  // namespace hedc::dm

#endif  // HEDC_DM_QUERY_SPEC_H_
