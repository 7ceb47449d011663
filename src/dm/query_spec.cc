#include "dm/query_spec.h"

#include <cctype>

namespace hedc::dm {

namespace {

bool IsSafeIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// An identifier, or one qualified as `table.column`.
bool IsSafeField(const std::string& name) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return IsSafeIdentifier(name);
  return IsSafeIdentifier(name.substr(0, dot)) &&
         IsSafeIdentifier(name.substr(dot + 1));
}

const char* OpToSql(CondOp op) {
  switch (op) {
    case CondOp::kEq:
      return "=";
    case CondOp::kNe:
      return "<>";
    case CondOp::kLt:
      return "<";
    case CondOp::kLe:
      return "<=";
    case CondOp::kGt:
      return ">";
    case CondOp::kGe:
      return ">=";
    case CondOp::kLike:
      return "LIKE";
  }
  return "=";
}

}  // namespace

Result<std::string> QuerySpec::ToSql(std::vector<db::Value>* params) const {
  if (!IsSafeIdentifier(table_)) {
    return Status::InvalidArgument("unsafe table name: " + table_);
  }
  std::string sql = "SELECT ";
  if (count_only_) {
    sql += "COUNT(*)";
  } else if (fields_.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (!IsSafeField(fields_[i])) {
        return Status::InvalidArgument("unsafe field name: " + fields_[i]);
      }
      if (i > 0) sql += ", ";
      sql += fields_[i];
    }
  }
  sql += " FROM ";
  sql += table_;
  if (!join_table_.empty()) {
    if (!IsSafeIdentifier(join_table_) || !IsSafeField(join_left_) ||
        !IsSafeField(join_right_)) {
      return Status::InvalidArgument("unsafe join: " + join_table_);
    }
    sql += " JOIN " + join_table_ + " ON " + join_left_ + " = " +
           join_right_;
  }

  params->clear();
  bool first = true;
  for (const Condition& cond : conditions_) {
    if (!IsSafeField(cond.field)) {
      return Status::InvalidArgument("unsafe field name: " + cond.field);
    }
    sql += first ? " WHERE " : " AND ";
    first = false;
    sql += cond.field;
    sql += ' ';
    sql += OpToSql(cond.op);
    sql += " ?";
    params->push_back(cond.value);
  }
  if (!raw_predicate_.empty()) {
    sql += first ? " WHERE " : " AND ";
    first = false;
    sql += "(";
    sql += raw_predicate_;
    sql += ")";
  }
  if (!order_by_.empty()) {
    if (!IsSafeField(order_by_)) {
      return Status::InvalidArgument("unsafe order field: " + order_by_);
    }
    sql += " ORDER BY ";
    sql += order_by_;
    if (order_desc_) sql += " DESC";
  }
  if (limit_ >= 0) {
    sql += " LIMIT ";
    sql += std::to_string(limit_);
  }
  return sql;
}

}  // namespace hedc::dm
