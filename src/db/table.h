// Heap table with secondary indexes.
//
// Rows live in a morsel-paged in-memory heap addressed by row id: the
// id space is split into fixed-width morsels (row-id ranges), each
// holding a dense slot array plus a per-column zone map (min/max over
// every non-null value written, widen-only). Morsels are the unit of
// work for the vectorized scan path (db/vectorized.h): parallel scans
// claim whole morsels and zone maps let range predicates skip them
// wholesale. B+-tree or hash indexes can be attached per column and are
// maintained on every mutation. A PRIMARY KEY column always has a hash
// index named `<table>_pkey`, created with the table: uniqueness costs one
// probe per insert or key update, and the planner uses the index like any
// other. Snapshots do not store it; re-creating the table rebuilds it.
// All mutations are single-writer
// (guarded by Database's per-table latch at the executor level); scans
// require at least the shared latch, which keeps morsels and slot rows
// stable while chunks borrow pointers into them.
#ifndef HEDC_DB_TABLE_H_
#define HEDC_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "db/btree.h"
#include "db/data_chunk.h"
#include "db/hash_index.h"
#include "db/schema.h"
#include "db/value.h"

namespace hedc::db {

enum class IndexKind { kBTree, kHash };

struct IndexDef {
  std::string name;
  size_t column = 0;
  IndexKind kind = IndexKind::kBTree;
};

class Table {
 public:
  static constexpr int64_t kDefaultRowsPerMorsel = 1024;

  Table(std::string name, Schema schema,
        int64_t rows_per_morsel = kDefaultRowsPerMorsel);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return live_rows_; }

  // Inserts a row; returns its row id. Enforces schema + primary-key
  // uniqueness.
  Result<int64_t> Insert(Row row);

  // Replaces the row at `row_id`. The previous image is returned through
  // `old_row` if non-null (used for undo logging).
  Status Update(int64_t row_id, Row row, Row* old_row = nullptr);

  // Deletes a row; previous image returned via `old_row` if non-null.
  Status Delete(int64_t row_id, Row* old_row = nullptr);

  // Fetches a row copy by id.
  Result<Row> Get(int64_t row_id) const;
  // Borrowed pointer to the row, or nullptr if absent. Stable until the
  // next mutation of this table (callers hold the table latch).
  const Row* Find(int64_t row_id) const;
  bool Exists(int64_t row_id) const;

  // Full scan in ascending row-id order; `visit` returns false to stop.
  void Scan(const std::function<bool(int64_t, const Row&)>& visit) const;

  // ----- Morsel access (vectorized execution engine; DESIGN.md §4e) -----

  // One fixed-width row-id range of the heap. Zone bounds are widen-only:
  // they cover every non-null value ever written into the morsel, so they
  // are a conservative superset of the live values (updates and deletes
  // never narrow them). zone_ok[c] is false once column c held a value
  // that does not order totally under Value::Compare (blobs).
  struct Morsel {
    Morsel(int64_t first, int64_t width, size_t columns)
        : first_row_id(first),
          slots(static_cast<size_t>(width)),
          occupied(static_cast<size_t>(width), 0),
          zmin(columns),
          zmax(columns),
          zone_ok(columns, 1) {}

    int64_t first_row_id;  // covers ids [first_row_id, first_row_id + width)
    std::vector<Row> slots;
    std::vector<uint8_t> occupied;
    int64_t live = 0;
    std::vector<Value> zmin, zmax;  // Null = no non-null value recorded
    std::vector<uint8_t> zone_ok;
  };

  int64_t rows_per_morsel() const { return rows_per_morsel_; }
  size_t num_morsels() const { return morsels_.size(); }

  // Borrowed pointers to the live morsels in ascending row-id order;
  // stable while the caller holds the table latch.
  void ListMorsels(std::vector<const Morsel*>* out) const;

  // Cursor for chunk-at-a-time scanning (serial batched path).
  struct ScanCursor {
    int64_t next_key = 0;  // morsel map key (first_row_id / width)
  };

  // Fills `chunk` with the live rows of the next non-empty morsel and
  // advances the cursor; returns false when the heap is exhausted. If
  // `morsel` is non-null it receives the source morsel (for zone maps).
  bool ScanChunk(ScanCursor* cursor, DataChunk* chunk,
                 const Morsel** morsel = nullptr) const;

  // Fills `chunk` with the live rows of `m` (parallel workers fill
  // chunks from morsels they claimed).
  void FillChunk(const Morsel& m, DataChunk* chunk) const;

  // Index management. Column is named; fails if absent or duplicated.
  Status CreateIndex(const std::string& index_name,
                     const std::string& column_name, IndexKind kind);
  // Finds an index on `column`, preferring B+-tree (supports ranges).
  const IndexDef* FindIndex(size_t column, bool need_range) const;

  const std::vector<IndexDef>& indexes() const { return index_defs_; }
  // The `<table>_pkey` hash index the constructor creates for the PRIMARY
  // KEY column (always the first index), or nullptr without a key.
  const IndexDef* primary_key_index() const {
    return has_primary_key_ ? &index_defs_.front() : nullptr;
  }
  const BTreeIndex* btree(const std::string& index_name) const;
  const HashIndex* hash(const std::string& index_name) const;
  // Mutable index access for recovery tooling and fault-injection tests
  // (e.g. planting a stale entry to exercise the executor's skip path).
  BTreeIndex* mutable_btree(const std::string& index_name);
  HashIndex* mutable_hash(const std::string& index_name);

  // Row ids via index lookup (point) and range scan.
  void IndexLookup(const IndexDef& def, const Value& key,
                   std::vector<int64_t>* out) const;
  void IndexRange(const IndexDef& def, const std::optional<Value>& lo,
                  bool lo_inclusive, const std::optional<Value>& hi,
                  bool hi_inclusive, std::vector<int64_t>* out) const;

  // Re-inserts a row with a specific id (WAL recovery path).
  Status InsertWithId(int64_t row_id, Row row);

  int64_t max_row_id() const { return next_row_id_ - 1; }

 private:
  void IndexInsert(int64_t row_id, const Row& row);
  void IndexErase(int64_t row_id, const Row& row);
  Status CheckPrimaryKey(const Row& row, int64_t ignore_row_id) const;

  Morsel* GetOrCreateMorsel(int64_t row_id);
  Row* Slot(int64_t row_id);  // nullptr if absent or unoccupied
  const Row* Slot(int64_t row_id) const;
  // Occupies the slot for `row_id` and widens the zone map.
  void Place(int64_t row_id, Row row);
  void WidenZones(Morsel* m, const Row& row);

  std::string name_;
  Schema schema_;
  int64_t rows_per_morsel_;
  // Keyed by first_row_id / rows_per_morsel_; ordered so scans visit
  // rows in ascending id order. Morsels whose last live row is deleted
  // are freed (bounding memory under churn; zone bounds reset with them).
  std::map<int64_t, std::unique_ptr<Morsel>> morsels_;
  int64_t next_row_id_ = 1;
  size_t live_rows_ = 0;

  bool has_primary_key_ = false;
  std::vector<IndexDef> index_defs_;
  std::vector<std::unique_ptr<BTreeIndex>> btrees_;  // parallel, null if hash
  std::vector<std::unique_ptr<HashIndex>> hashes_;   // parallel, null if btree
};

}  // namespace hedc::db

#endif  // HEDC_DB_TABLE_H_
