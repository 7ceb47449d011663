#include "db/table.h"

#include <algorithm>

#include "core/strings.h"

namespace hedc::db {

Table::Table(std::string name, Schema schema, int64_t rows_per_morsel)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      rows_per_morsel_(std::clamp<int64_t>(rows_per_morsel, 16, 1 << 20)) {
  // PRIMARY KEY implies a hash index, so uniqueness costs one probe.
  if (auto pk = schema_.PrimaryKeyIndex(); pk.has_value()) {
    has_primary_key_ = CreateIndex(name_ + "_pkey", schema_.column(*pk).name,
                                   IndexKind::kHash)
                           .ok();
  }
}

Table::Morsel* Table::GetOrCreateMorsel(int64_t row_id) {
  int64_t key = row_id / rows_per_morsel_;
  auto it = morsels_.find(key);
  if (it == morsels_.end()) {
    it = morsels_
             .emplace(key, std::make_unique<Morsel>(key * rows_per_morsel_,
                                                    rows_per_morsel_,
                                                    schema_.num_columns()))
             .first;
  }
  return it->second.get();
}

Row* Table::Slot(int64_t row_id) {
  if (row_id < 0) return nullptr;
  auto it = morsels_.find(row_id / rows_per_morsel_);
  if (it == morsels_.end()) return nullptr;
  size_t idx = static_cast<size_t>(row_id - it->second->first_row_id);
  return it->second->occupied[idx] ? &it->second->slots[idx] : nullptr;
}

const Row* Table::Slot(int64_t row_id) const {
  if (row_id < 0) return nullptr;
  auto it = morsels_.find(row_id / rows_per_morsel_);
  if (it == morsels_.end()) return nullptr;
  size_t idx = static_cast<size_t>(row_id - it->second->first_row_id);
  return it->second->occupied[idx] ? &it->second->slots[idx] : nullptr;
}

void Table::WidenZones(Morsel* m, const Row& row) {
  for (size_t c = 0; c < row.size() && c < m->zone_ok.size(); ++c) {
    if (!m->zone_ok[c]) continue;
    const Value& v = row[c];
    if (v.is_null()) continue;
    if (v.type() == ValueType::kBlob) {
      // Blobs are never compared by predicates; keep the zone disabled
      // rather than pretend they order meaningfully.
      m->zone_ok[c] = 0;
      continue;
    }
    if (m->zmin[c].is_null() || v.Compare(m->zmin[c]) < 0) m->zmin[c] = v;
    if (m->zmax[c].is_null() || v.Compare(m->zmax[c]) > 0) m->zmax[c] = v;
  }
}

void Table::Place(int64_t row_id, Row row) {
  Morsel* m = GetOrCreateMorsel(row_id);
  size_t idx = static_cast<size_t>(row_id - m->first_row_id);
  WidenZones(m, row);
  m->slots[idx] = std::move(row);
  m->occupied[idx] = 1;
  ++m->live;
}

Result<int64_t> Table::Insert(Row row) {
  schema_.CoerceRow(&row);
  HEDC_RETURN_IF_ERROR(schema_.ValidateRow(row));
  HEDC_RETURN_IF_ERROR(CheckPrimaryKey(row, /*ignore_row_id=*/-1));
  int64_t row_id = next_row_id_++;
  IndexInsert(row_id, row);
  Place(row_id, std::move(row));
  ++live_rows_;
  return row_id;
}

Status Table::InsertWithId(int64_t row_id, Row row) {
  if (row_id <= 0) {
    return Status::InvalidArgument(
        StrFormat("row id %lld out of range", (long long)row_id));
  }
  schema_.CoerceRow(&row);
  HEDC_RETURN_IF_ERROR(schema_.ValidateRow(row));
  if (Slot(row_id) != nullptr) {
    return Status::AlreadyExists(
        StrFormat("row %lld already present", (long long)row_id));
  }
  IndexInsert(row_id, row);
  Place(row_id, std::move(row));
  ++live_rows_;
  next_row_id_ = std::max(next_row_id_, row_id + 1);
  return Status::Ok();
}

Status Table::Update(int64_t row_id, Row row, Row* old_row) {
  Row* slot = Slot(row_id);
  if (slot == nullptr) {
    return Status::NotFound(
        StrFormat("row %lld in table %s", (long long)row_id, name_.c_str()));
  }
  schema_.CoerceRow(&row);
  HEDC_RETURN_IF_ERROR(schema_.ValidateRow(row));
  HEDC_RETURN_IF_ERROR(CheckPrimaryKey(row, row_id));
  IndexErase(row_id, *slot);
  if (old_row != nullptr) *old_row = std::move(*slot);
  WidenZones(GetOrCreateMorsel(row_id), row);
  *slot = std::move(row);
  IndexInsert(row_id, *slot);
  return Status::Ok();
}

Status Table::Delete(int64_t row_id, Row* old_row) {
  auto it = row_id < 0 ? morsels_.end()
                       : morsels_.find(row_id / rows_per_morsel_);
  if (it == morsels_.end()) {
    return Status::NotFound(
        StrFormat("row %lld in table %s", (long long)row_id, name_.c_str()));
  }
  Morsel* m = it->second.get();
  size_t idx = static_cast<size_t>(row_id - m->first_row_id);
  if (!m->occupied[idx]) {
    return Status::NotFound(
        StrFormat("row %lld in table %s", (long long)row_id, name_.c_str()));
  }
  IndexErase(row_id, m->slots[idx]);
  if (old_row != nullptr) *old_row = std::move(m->slots[idx]);
  m->slots[idx] = Row{};
  m->occupied[idx] = 0;
  --m->live;
  --live_rows_;
  if (m->live == 0) morsels_.erase(it);
  return Status::Ok();
}

Result<Row> Table::Get(int64_t row_id) const {
  const Row* row = Slot(row_id);
  if (row == nullptr) {
    return Status::NotFound(
        StrFormat("row %lld in table %s", (long long)row_id, name_.c_str()));
  }
  return *row;
}

const Row* Table::Find(int64_t row_id) const { return Slot(row_id); }

bool Table::Exists(int64_t row_id) const { return Slot(row_id) != nullptr; }

void Table::Scan(
    const std::function<bool(int64_t, const Row&)>& visit) const {
  for (const auto& [key, m] : morsels_) {
    for (size_t i = 0; i < m->slots.size(); ++i) {
      if (!m->occupied[i]) continue;
      if (!visit(m->first_row_id + static_cast<int64_t>(i), m->slots[i])) {
        return;
      }
    }
  }
}

void Table::ListMorsels(std::vector<const Morsel*>* out) const {
  out->reserve(out->size() + morsels_.size());
  for (const auto& [key, m] : morsels_) out->push_back(m.get());
}

bool Table::ScanChunk(ScanCursor* cursor, DataChunk* chunk,
                      const Morsel** morsel) const {
  auto it = morsels_.lower_bound(cursor->next_key);
  if (it == morsels_.end()) return false;
  cursor->next_key = it->first + 1;
  FillChunk(*it->second, chunk);
  if (morsel != nullptr) *morsel = it->second.get();
  return true;
}

void Table::FillChunk(const Morsel& m, DataChunk* chunk) const {
  chunk->Reset(schema_.num_columns());
  for (size_t i = 0; i < m.slots.size(); ++i) {
    if (!m.occupied[i]) continue;
    chunk->Append(m.first_row_id + static_cast<int64_t>(i), &m.slots[i]);
  }
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name, IndexKind kind) {
  for (const IndexDef& def : index_defs_) {
    if (EqualsIgnoreCase(def.name, index_name)) {
      return Status::AlreadyExists("index " + index_name);
    }
  }
  auto col = schema_.ColumnIndex(column_name);
  if (!col.has_value()) {
    return Status::NotFound("column " + column_name + " in " + name_);
  }
  IndexDef def{index_name, *col, kind};
  index_defs_.push_back(def);
  if (kind == IndexKind::kBTree) {
    btrees_.push_back(std::make_unique<BTreeIndex>());
    hashes_.push_back(nullptr);
  } else {
    btrees_.push_back(nullptr);
    hashes_.push_back(std::make_unique<HashIndex>());
  }
  // Backfill from existing rows.
  size_t slot = index_defs_.size() - 1;
  Scan([&](int64_t row_id, const Row& row) {
    const Value& key = row[def.column];
    if (btrees_[slot] != nullptr) {
      btrees_[slot]->Insert(key, row_id);
    } else {
      hashes_[slot]->Insert(key, row_id);
    }
    return true;
  });
  return Status::Ok();
}

const IndexDef* Table::FindIndex(size_t column, bool need_range) const {
  const IndexDef* hash_match = nullptr;
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    if (index_defs_[i].column != column) continue;
    if (index_defs_[i].kind == IndexKind::kBTree) return &index_defs_[i];
    hash_match = &index_defs_[i];
  }
  return need_range ? nullptr : hash_match;
}

const BTreeIndex* Table::btree(const std::string& index_name) const {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    if (EqualsIgnoreCase(index_defs_[i].name, index_name)) {
      return btrees_[i].get();
    }
  }
  return nullptr;
}

const HashIndex* Table::hash(const std::string& index_name) const {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    if (EqualsIgnoreCase(index_defs_[i].name, index_name)) {
      return hashes_[i].get();
    }
  }
  return nullptr;
}

BTreeIndex* Table::mutable_btree(const std::string& index_name) {
  return const_cast<BTreeIndex*>(
      static_cast<const Table*>(this)->btree(index_name));
}

HashIndex* Table::mutable_hash(const std::string& index_name) {
  return const_cast<HashIndex*>(
      static_cast<const Table*>(this)->hash(index_name));
}

void Table::IndexLookup(const IndexDef& def, const Value& key,
                        std::vector<int64_t>* out) const {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    if (&index_defs_[i] != &def) continue;
    if (btrees_[i] != nullptr) {
      btrees_[i]->Lookup(key, out);
    } else {
      hashes_[i]->Lookup(key, out);
    }
    return;
  }
}

void Table::IndexRange(const IndexDef& def, const std::optional<Value>& lo,
                       bool lo_inclusive, const std::optional<Value>& hi,
                       bool hi_inclusive, std::vector<int64_t>* out) const {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    if (&index_defs_[i] != &def) continue;
    if (btrees_[i] != nullptr) {
      btrees_[i]->Scan(lo, lo_inclusive, hi, hi_inclusive,
                       [out](const Value&, int64_t row_id) {
                         out->push_back(row_id);
                         return true;
                       });
    }
    return;
  }
}

void Table::IndexInsert(int64_t row_id, const Row& row) {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    const Value& key = row[index_defs_[i].column];
    if (btrees_[i] != nullptr) {
      btrees_[i]->Insert(key, row_id);
    } else {
      hashes_[i]->Insert(key, row_id);
    }
  }
}

void Table::IndexErase(int64_t row_id, const Row& row) {
  for (size_t i = 0; i < index_defs_.size(); ++i) {
    const Value& key = row[index_defs_[i].column];
    if (btrees_[i] != nullptr) {
      btrees_[i]->Erase(key, row_id);
    } else {
      hashes_[i]->Erase(key, row_id);
    }
  }
}

Status Table::CheckPrimaryKey(const Row& row, int64_t ignore_row_id) const {
  const IndexDef* pk = primary_key_index();
  if (pk == nullptr) return Status::Ok();
  const Value& key = row[pk->column];
  std::vector<int64_t> ids;
  IndexLookup(*pk, key, &ids);
  for (int64_t id : ids) {
    if (id == ignore_row_id) continue;
    // Re-check the row: a stale entry or a bucket collision is no clash.
    const Row* other = Slot(id);
    if (other != nullptr && (*other)[pk->column] == key) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table %s",
                    key.AsText().c_str(), name_.c_str()));
    }
  }
  return Status::Ok();
}

}  // namespace hedc::db
