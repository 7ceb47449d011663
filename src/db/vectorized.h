// Vectorized scan-filter execution (DESIGN.md §4e).
//
// Interpreting the WHERE tree per row on boxed Values costs Status
// machinery and Value copies at every node. This module avoids that for
// the common shapes: the bound predicate is compiled
// once per statement into per-conjunct *filter kernels* that run over a
// DataChunk's flattened column vectors, compacting a selection vector.
// Conjuncts the compiler does not recognize fall back to the
// interpreter (EvalExpr) — per row, but only for the residual conjunct,
// and still batched. Kernels are applied in conjunct order, so AND
// short-circuit semantics (a row dropped by conjunct k never evaluates
// conjunct k+1) match the interpreter exactly.
//
// ScanFilter drives whole table scans morsel-at-a-time: zone maps
// prune morsels whose [min,max] cannot intersect the predicate's
// sargable bounds, and on large tables morsels are dispatched
// morsel-driven (workers claim the next morsel off a shared atomic) on
// a core::ThreadPool, the caller participating as one worker.
#ifndef HEDC_DB_VECTORIZED_H_
#define HEDC_DB_VECTORIZED_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "db/data_chunk.h"
#include "db/expr.h"
#include "db/scan_bounds.h"
#include "db/sql.h"
#include "db/table.h"

namespace hedc::db {

// One compiled conjunct. Borrowed pointers (`literal`, `in_values`,
// `expr`) point into the bound WHERE tree and must outlive the plan.
struct FilterKernel {
  enum class Kind {
    kCompare,     // col <op> literal, op in {=, !=, <, <=, >, >=}
    kLike,        // col LIKE literal
    kInList,      // col IN (literals...)
    kIsNull,      // col IS NULL
    kIsNotNull,   // col IS NOT NULL
    kConstFalse,  // provably empty (e.g. col = NULL)
    kInterpret,   // anything else: EvalExpr per selected row
  };
  Kind kind = Kind::kInterpret;
  int col = -1;
  BinOp op = BinOp::kEq;
  const Value* literal = nullptr;
  std::vector<const Value*> in_values;  // non-null IN items
  const Expr* expr = nullptr;
};

struct FilterPlan {
  std::vector<FilterKernel> kernels;
  size_t typed = 0;        // kernels running on flattened vectors
  size_t interpreted = 0;  // kernels falling back to EvalExpr

  bool fully_typed() const { return interpreted == 0; }
};

// Compiles the bound WHERE tree (nullptr = no predicate) into kernels,
// one per AND-conjunct, in conjunct order.
FilterPlan CompileFilter(const Expr* where);

// Applies `plan` to `chunk`, compacting `sel` (indices into the chunk)
// in place. `sel` must be initialized by the caller (identity for a
// fresh chunk). Only interpreted kernels can fail.
Status ApplyFilter(const FilterPlan& plan, DataChunk* chunk,
                   std::vector<uint32_t>* sel);

// True if the zone map cannot rule out a row of `m` matching `b` on
// column `col`. Conservative: returns true whenever the zone is
// unusable (disabled column, or text zone probed with a non-text bound,
// where Value::Compare's coercion does not agree with the zone order).
bool MorselMayMatch(const Table::Morsel& m, size_t col,
                    const ColumnBounds& b);

// Morsels of `table` surviving zone-map pruning under `bounds`, in
// ascending row-id order. `pruned` (optional) counts skipped morsels.
void PruneMorsels(const Table& table,
                  const std::unordered_map<int, ColumnBounds>& bounds,
                  std::vector<const Table::Morsel*>* out, int64_t* pruned);

struct ScanOptions {
  bool zone_maps = true;
  int threads = 1;              // parallelism degree, caller included
  ThreadPool* pool = nullptr;   // required for threads > 1
  // Tables smaller than this stay serial (morsel dispatch overhead
  // dwarfs the scan itself).
  int64_t min_parallel_rows = 4096;
};

struct ScanStats {
  int64_t morsels_total = 0;
  int64_t morsels_pruned = 0;
  int64_t rows_scanned = 0;  // rows run through the kernels
  int64_t rows_matched = 0;
  int threads_used = 1;
};

// A surviving row: borrowed pointer into the table heap, stable while
// the caller holds the table latch and performs no mutations.
struct ScanMatch {
  int64_t row_id;
  const Row* row;
};

// The parallelism degree ScanFilter would use for `table` under `opts`,
// assuming a pool is available (exposed so ExplainSelect reports the
// same number without instantiating the pool).
int PlannedScanThreads(const Table& table, const ScanOptions& opts);

// Vectorized scan-filter over the whole table: compiles `where`, prunes
// morsels via zone maps, fills chunks and applies the kernels, either
// serially or morsel-driven on `opts.pool`. Matches are appended in
// ascending row-id order. Caller must hold the table latch (shared is
// enough) for the duration of the call *and* for as long as it
// dereferences the returned row pointers.
Status ScanFilter(const Table& table, const Expr* where,
                  const ScanOptions& opts, std::vector<ScanMatch>* out,
                  ScanStats* stats);

// ---- Vectorized grouped aggregation (DESIGN.md §4h) ----
//
// One hash-grouped accumulator shared by every aggregation path:
// materialized matches (index scans, ORDER BY, joins) feed it boxed
// rows, streamed heap scans run typed kernels over a chunk's flattened
// columns, and parallel scans fork one aggregator per worker and merge
// the partials. Group identity is the rendered text of the key columns
// joined with 0x1f (NULL renders as "NULL"), so Int(1) and Real(1.0)
// share a group just as Value::Compare equates them.

struct AggSpec {
  AggFunc func = AggFunc::kCountStar;
  int col = -1;  // column index (combined/flat for joins); -1 = COUNT(*)
};

class GroupedAggregator {
 public:
  GroupedAggregator(std::vector<int> group_cols, std::vector<AggSpec> specs);

  // Empty aggregator with the same shape (per-worker partials).
  GroupedAggregator Fork() const;

  // Row-at-a-time accumulation. `seq` orders a group's first appearance
  // across partials (pass the driving row id, or a running counter).
  void AccumulateRow(const Row& row, int64_t seq);

  // Chunk accumulation over the selected positions: group ids resolve
  // once per row (memoized int / borrowed text fast paths for uniform
  // key columns), then each aggregate runs a typed kernel over the
  // flattened column with a generic Value fallback for mixed columns.
  void AccumulateChunk(DataChunk* chunk, const std::vector<uint32_t>& sel);

  // Folds a partial into this aggregator (key-wise; first_seen = min).
  void MergeFrom(const GroupedAggregator& other);

  size_t num_groups() const { return groups_.size(); }

  // Output layout: each slot is either a group key (index into the
  // group_cols list) or an aggregate (index into the specs list).
  struct OutputSlot {
    bool group_key = false;
    size_t index = 0;
  };

  // One row per group, ordered by first appearance. With no group
  // columns and no accumulated rows, emits the SQL empty-input row
  // (COUNT = 0, other aggregates NULL) when `empty_input_row` is set.
  void Emit(const std::vector<OutputSlot>& layout, bool empty_input_row,
            std::vector<Row>* out) const;

 private:
  struct ItemAgg {
    int64_t nonnull = 0;  // non-NULL inputs (COUNT(col), AVG divisor)
    double sum = 0;
    bool any = false;
    Value vmin, vmax;
  };
  struct Group {
    std::string key;
    std::vector<Value> key_vals;  // first-seen key values, display order
    int64_t rows = 0;             // COUNT(*)
    int64_t first_seen = 0;
    std::vector<ItemAgg> items;   // parallel to specs_
  };

  // Group index for `key`, creating it (first_seen=seq, key values
  // copied from kv[0..nkv)) on first sight; min-updates first_seen.
  size_t Intern(const std::string& key, int64_t seq, const Value* kv,
                size_t nkv);
  std::string BuildKey(const Row& row) const;
  void AccumulateItems(Group* g, const Row& row);
  static void UpdateMinMax(ItemAgg* a, const Value& v);

  std::vector<int> group_cols_;
  std::vector<AggSpec> specs_;
  std::vector<Group> groups_;
  std::unordered_map<std::string, size_t> index_;
  std::unordered_map<int64_t, size_t> int_memo_;  // single-int-key cache
  std::vector<uint32_t> gids_;                    // per-chunk scratch
};

// ScanFilter's sibling for aggregate queries: scan → filter → aggregate
// per morsel without materializing matches. Parallel workers accumulate
// worker-local partials, merged into `agg` after the scan; group output
// order stays deterministic (first_seen is the row id) but
// floating-point SUM/AVG association varies with the schedule.
Status ScanAggregate(const Table& table, const Expr* where,
                     const ScanOptions& opts, GroupedAggregator* agg,
                     ScanStats* stats);

}  // namespace hedc::db

#endif  // HEDC_DB_VECTORIZED_H_
