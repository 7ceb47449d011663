// Typed values held in metadata tuples.
//
// The metadata schema needs integers (ids, counts), reals (energy ranges,
// times), text (paths, parameters, log excerpts), booleans (flags such as
// is_public) and blobs (LOB ablation).
#ifndef HEDC_DB_VALUE_H_
#define HEDC_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace hedc::db {

enum class ValueType { kNull = 0, kInt, kReal, kText, kBool, kBlob };

const char* ValueTypeName(ValueType type);

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }
  static Value Bool(bool v) { return Value(v); }
  static Value Blob(std::vector<uint8_t> v) { return Value(std::move(v)); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  int64_t AsInt() const;     // numeric coercion; 0 for null/non-numeric
  double AsReal() const;     // numeric coercion; 0.0 likewise
  bool AsBool() const;       // false for null; non-zero numerics are true
  std::string AsText() const;  // printable rendering of any type
  // Unchecked typed reads (UB unless type() matches); the vectorized
  // scan path uses these to keep per-row flattening free of the
  // coercion switch in the As* accessors.
  int64_t int_value() const { return std::get<int64_t>(data_); }
  double real_value() const { return std::get<double>(data_); }
  bool bool_value() const { return std::get<bool>(data_); }
  const std::string& text() const { return std::get<std::string>(data_); }
  // Moves the text out (UB unless type() is kText), leaving it empty.
  std::string TakeText() { return std::move(std::get<std::string>(data_)); }
  const std::vector<uint8_t>& blob() const {
    return std::get<std::vector<uint8_t>>(data_);
  }

  // SQL-style three-valued-logic-free ordering used by indexes: NULL sorts
  // first; numeric types compare by value; text lexicographically. Cross
  // numeric/text comparisons coerce text to number when comparing with a
  // numeric (mirrors lenient scripting front ends).
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(bool v) : data_(v) {}
  explicit Value(std::vector<uint8_t> v) : data_(std::move(v)) {}

  std::variant<std::monostate, int64_t, double, std::string, bool,
               std::vector<uint8_t>>
      data_;
};

using Row = std::vector<Value>;

}  // namespace hedc::db

#endif  // HEDC_DB_VALUE_H_
