// The DM I/O layer (§5.2): "abstracts from the actual storage type and
// location. All data accesses happen through this layer. It manages
// database access, file system manipulation, database connections and
// performs general resource management. Operations like dynamic name
// construction are also done at this layer. ... The layer supports
// dynamic partitioning of the load so that, e.g., data requests for
// certain parts of a database schema are routed to a different DBMS."
#ifndef HEDC_DM_IO_LAYER_H_
#define HEDC_DM_IO_LAYER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/name_mapper.h"
#include "core/metrics.h"
#include "core/status.h"
#include "db/database.h"
#include "dm/query_spec.h"

namespace hedc::dm {

class IoLayer {
 public:
  // `db` is the default metadata DBMS; `archives` and `mapper` serve the
  // file side. All pointers are borrowed and must outlive the layer.
  IoLayer(db::Database* db, archive::ArchiveManager* archives,
          archive::NameMapper* mapper);

  // --- vertical partitioning -------------------------------------------
  // Routes all accesses for `table` to another DBMS (e.g. "separate
  // processing from browsing clients", §5.2).
  void RouteTable(const std::string& table, db::Database* target);
  db::Database* DatabaseFor(const std::string& table) const;

  // --- database access --------------------------------------------------
  // Both run directly on DatabaseFor(table): the engine is embedded, so
  // there is no connection to open or pool (§5.3).
  // Executes a verified QuerySpec.
  Result<db::ResultSet> Query(const QuerySpec& spec);
  // Raw SQL update path (inserts/updates/deletes).
  Result<db::ResultSet> Update(const std::string& table,
                               std::string_view sql,
                               const std::vector<db::Value>& params);

  // --- file access -------------------------------------------------------
  // Receives one fixed-size chunk of a streamed item file. `offset` is the
  // chunk's position in the file; the last chunk may be short.
  using ChunkSink =
      std::function<Status(uint64_t offset, const uint8_t* data, size_t n)>;

  // Default chunk size for streamed reads (64 KiB).
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  // Streams the file registered for `item_id` through `sink` in
  // `chunk_bytes`-sized pieces: one name resolution, then bounded-memory
  // ReadRange loops against the archive — large items never materialize
  // as a single allocation in this layer. Returns the total bytes
  // streamed. A sink error aborts the stream and is returned verbatim.
  Result<uint64_t> StreamItemFile(int64_t item_id, const ChunkSink& sink,
                                  size_t chunk_bytes = kDefaultChunkBytes);

  // Reads the file registered for `item_id` (name mapping + archive read).
  // Implemented over StreamItemFile; callers needing bounded memory use
  // the streamed form directly.
  Result<std::vector<uint8_t>> ReadItemFile(int64_t item_id);
  // Stores `data` on `archive_id` under `rel_path` and registers the
  // filename location for `item_id`.
  Status WriteItemFile(int64_t item_id, int64_t archive_id,
                       const std::string& rel_path,
                       const std::vector<uint8_t>& data);
  Status DeleteItemFile(int64_t item_id);

  archive::NameMapper* name_mapper() { return mapper_; }
  archive::ArchiveManager* archives() { return archives_; }

  // I/O statistics for the evaluation harness.
  int64_t queries_executed() const { return queries_; }
  int64_t updates_executed() const { return updates_; }
  int64_t files_read() const { return file_reads_; }
  int64_t files_written() const { return file_writes_; }
  int64_t bytes_read() const { return bytes_read_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  db::Database* db_;
  archive::ArchiveManager* archives_;
  archive::NameMapper* mapper_;
  std::map<std::string, db::Database*> routes_;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> updates_{0};
  std::atomic<int64_t> file_reads_{0};
  std::atomic<int64_t> file_writes_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> bytes_written_{0};

  // io.* metrics: file traffic through the layer, visible on /metrics
  // alongside the per-instance stats above.
  Counter* files_read_metric_;
  Counter* files_written_metric_;
  Counter* bytes_read_metric_;
  Counter* bytes_written_metric_;
};

}  // namespace hedc::dm

#endif  // HEDC_DM_IO_LAYER_H_
