// Dynamic name mapping (§4.3).
//
// Every data item is located by constructing a name of the form
//   [type] [root] [path] [item_id]
// where each element is determined dynamically per request:
//  * the location table, queried by item id (indexed), yields the entries
//    (name type, archive id, relative path) associated with the item;
//  * the archive table, queried by archive id (indexed), yields the
//    current archive type and path prefix;
//  * the root comes from system configuration.
// The cost is exactly two extra indexed queries; the payoff is that
// administrators relocate files (disk repair, disk→tape migration, data
// reorganization) by updating location tuples only, at run time.
//
// A sharded read-through LRU cache elides the two queries on warm
// resolutions. Relocation primitives invalidate strictly: they update the
// database first, then bump a generation counter, then drop the affected
// entries; readers snapshot the generation before querying and only
// install a result if the generation is unchanged, so a resolution racing
// a relocation can never pin a stale path into the cache.
#ifndef HEDC_ARCHIVE_NAME_MAPPER_H_
#define HEDC_ARCHIVE_NAME_MAPPER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"
#include "core/status.h"
#include "db/database.h"

namespace hedc::archive {

enum class NameType { kFilename, kTupleId, kUrl };

const char* NameTypeName(NameType type);

struct ResolvedName {
  NameType type = NameType::kFilename;
  std::string name;       // fully constructed name
  int64_t archive_id = 0;
  std::string rel_path;   // [path][item_id] part, relative to the archive
};

class NameMapper {
 public:
  // `config` supplies the [root] elements: keys "root.filename",
  // "root.url", "root.tuple" (defaults: "", "http://hedc/data",
  // "hedc://tuple").
  NameMapper(db::Database* db, Config config);

  // Creates the location-section tables (idempotent):
  //   archives(archive_id, archive_type, path_prefix, online)
  //   location_entries(entry_id, item_id, name_type, archive_id, rel_path)
  Status Init();

  Status RegisterArchive(int64_t archive_id, const std::string& type,
                         const std::string& path_prefix);

  // Associates a name of `type` for `item_id`, stored in `archive_id`
  // under `rel_path`.
  Status AddLocation(int64_t item_id, NameType type, int64_t archive_id,
                     const std::string& rel_path);

  // Resolves one name. Cold resolutions run the two indexed point
  // queries (location entry by item id, then its archive by id).
  Result<ResolvedName> Resolve(int64_t item_id, NameType type);

  // All names registered for an item.
  Result<std::vector<ResolvedName>> ResolveAll(int64_t item_id);

  // Relocation primitives — none of them touch domain-specific tuples.
  // Moves every location entry from one archive to another.
  Status RelocateArchive(int64_t from_archive, int64_t to_archive);
  // Changes an archive's path prefix (e.g. new mount point).
  Status Remount(int64_t archive_id, const std::string& new_prefix);
  // Moves a single item's entry of `type` to a new archive/path.
  Status MoveItem(int64_t item_id, NameType type, int64_t new_archive,
                  const std::string& new_rel_path);

  Status RemoveLocations(int64_t item_id);

  // Drops every cached resolution and bumps the generation (admin paths
  // that mutate the location tables behind the mapper's back).
  void InvalidateCache();

 private:
  static constexpr size_t kCacheShards = 8;

  struct CacheEntry {
    uint64_t key = 0;
    ResolvedName value;
  };
  // Entries for one slice of the item-id space. All name types of an item
  // hash to the same shard, so per-item invalidation locks one shard.
  struct CacheShard {
    std::mutex mu;
    std::list<CacheEntry> lru;  // front = most recently used
    std::unordered_map<uint64_t, std::list<CacheEntry>::iterator> index;
  };

  std::string RootFor(NameType type) const;

  static uint64_t CacheKey(int64_t item_id, NameType type);
  CacheShard& ShardFor(int64_t item_id);
  bool CacheGet(int64_t item_id, NameType type, ResolvedName* out);
  // Installs `value` unless the generation moved past `gen_snapshot`
  // (a relocation landed during the DB queries).
  void CachePut(uint64_t gen_snapshot, int64_t item_id, NameType type,
                const ResolvedName& value);
  void CacheEraseItem(int64_t item_id);

  // Uncached resolution: the entry/archive rows for (item_id, type).
  Result<ResolvedName> ResolveUncached(int64_t item_id, NameType type);

  db::Database* db_;
  Config config_;
  size_t cache_capacity_per_shard_ = 0;  // 0 disables the cache
  std::atomic<uint64_t> cache_gen_{0};
  std::array<CacheShard, kCacheShards> cache_shards_;

  // namemap.* metrics: resolution volume/latency, miss breakdown, and the
  // two-extra-indexed-queries cost the paper trades for relocatability.
  Counter* resolutions_;
  Counter* misses_;
  Counter* db_queries_;
  Histogram* resolve_us_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* cache_invalidations_;
};

}  // namespace hedc::archive

#endif  // HEDC_ARCHIVE_NAME_MAPPER_H_
