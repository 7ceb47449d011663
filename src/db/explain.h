// Plan explanation: which access path a SELECT would use. The DM's
// query-optimization story (§5.4: "queries may be adapted and optimized
// without system downtime") needs visibility into index usage; tests and
// the admin tooling use this instead of guessing from counters.
#ifndef HEDC_DB_EXPLAIN_H_
#define HEDC_DB_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "db/database.h"

namespace hedc::db {

struct QueryPlan {
  enum class Access { kFullScan, kIndexPoint, kIndexRange };
  Access access = Access::kFullScan;
  std::string table;
  std::string index_name;   // empty for full scans
  std::string column;       // driving column for index access
  bool has_residual = false;  // predicate re-checked after the index

  // Full-scan strategy (meaningful when access == kFullScan).
  int64_t morsel_count = 0;   // morsels in the table at plan time
  int64_t morsels_pruned = 0;  // morsels the zone maps would skip
  int parallelism = 1;        // threads the executor would use

  // Joined SELECTs: the pipeline stages the join planner chose (driver
  // scan, hash-join builds, terminal), rendered by ToString as
  // "PIPELINE stage -> stage -> ...". The single-table fields above are
  // not populated for joined plans.
  bool joined = false;
  std::vector<std::string> pipeline;

  std::string ToString() const;
};

// Plans `sql` (must be a SELECT) against the current catalog without
// executing it. Parameters are treated as opaque values for planning.
Result<QueryPlan> ExplainSelect(Database* db, std::string_view sql,
                                const std::vector<Value>& params = {});

}  // namespace hedc::db

#endif  // HEDC_DB_EXPLAIN_H_
