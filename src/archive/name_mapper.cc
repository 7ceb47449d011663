#include "archive/name_mapper.h"

#include <algorithm>

#include "core/ids.h"
#include "core/strings.h"

namespace hedc::archive {

namespace {

IdGenerator* EntryIds() {
  static IdGenerator* const kIds = new IdGenerator(1);
  return kIds;
}

Result<NameType> NameTypeFromText(const std::string& text) {
  if (text == "filename") return NameType::kFilename;
  if (text == "tuple") return NameType::kTupleId;
  if (text == "url") return NameType::kUrl;
  return Status::Corruption("unknown name type: " + text);
}

}  // namespace

const char* NameTypeName(NameType type) {
  switch (type) {
    case NameType::kFilename:
      return "filename";
    case NameType::kTupleId:
      return "tuple";
    case NameType::kUrl:
      return "url";
  }
  return "?";
}

NameMapper::NameMapper(db::Database* db, Config config)
    : db_(db), config_(std::move(config)) {
  int64_t capacity = config_.GetInt("name_mapper.cache_capacity", 1024);
  if (capacity > 0) {
    cache_capacity_per_shard_ = std::max<size_t>(
        1, static_cast<size_t>(capacity) / kCacheShards);
  }
  MetricsRegistry* metrics = MetricsRegistry::Default();
  resolutions_ = metrics->GetCounter("namemap.resolutions");
  misses_ = metrics->GetCounter("namemap.misses");
  db_queries_ = metrics->GetCounter("namemap.db_queries");
  resolve_us_ = metrics->GetHistogram("namemap.resolve_us");
  cache_hits_ = metrics->GetCounter("name_mapper.cache_hits");
  cache_misses_ = metrics->GetCounter("name_mapper.cache_misses");
  cache_invalidations_ =
      metrics->GetCounter("name_mapper.cache_invalidations");
}

uint64_t NameMapper::CacheKey(int64_t item_id, NameType type) {
  return static_cast<uint64_t>(item_id) * 4 +
         static_cast<uint64_t>(type);
}

NameMapper::CacheShard& NameMapper::ShardFor(int64_t item_id) {
  return cache_shards_[static_cast<uint64_t>(item_id) % kCacheShards];
}

bool NameMapper::CacheGet(int64_t item_id, NameType type,
                          ResolvedName* out) {
  if (cache_capacity_per_shard_ == 0) return false;
  CacheShard& shard = ShardFor(item_id);
  uint64_t key = CacheKey(item_id, type);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->value;
  return true;
}

void NameMapper::CachePut(uint64_t gen_snapshot, int64_t item_id,
                          NameType type, const ResolvedName& value) {
  if (cache_capacity_per_shard_ == 0) return;
  CacheShard& shard = ShardFor(item_id);
  uint64_t key = CacheKey(item_id, type);
  std::lock_guard<std::mutex> lock(shard.mu);
  // A relocation may have landed between our DB queries and now; its
  // invalidation already ran, so installing this result would cache a
  // stale path. The generation check is made under the shard lock,
  // ordering it against the eraser's locked pass.
  if (cache_gen_.load(std::memory_order_acquire) != gen_snapshot) return;
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(CacheEntry{key, value});
  shard.index[key] = shard.lru.begin();
  if (shard.lru.size() > cache_capacity_per_shard_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
  }
}

void NameMapper::CacheEraseItem(int64_t item_id) {
  if (cache_capacity_per_shard_ == 0) return;
  cache_gen_.fetch_add(1, std::memory_order_acq_rel);
  cache_invalidations_->Add();
  CacheShard& shard = ShardFor(item_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (int t = 0; t < 3; ++t) {
    auto it = shard.index.find(CacheKey(item_id, static_cast<NameType>(t)));
    if (it == shard.index.end()) continue;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
}

void NameMapper::InvalidateCache() {
  if (cache_capacity_per_shard_ == 0) return;
  cache_gen_.fetch_add(1, std::memory_order_acq_rel);
  cache_invalidations_->Add();
  for (CacheShard& shard : cache_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

Status NameMapper::Init() {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r1,
      db_->Execute("CREATE TABLE IF NOT EXISTS archives ("
                   "archive_id INT PRIMARY KEY, archive_type TEXT, "
                   "path_prefix TEXT, online BOOL)"));
  (void)r1;
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r2,
      db_->Execute("CREATE TABLE IF NOT EXISTS location_entries ("
                   "entry_id INT PRIMARY KEY, item_id INT NOT NULL, "
                   "name_type TEXT NOT NULL, archive_id INT NOT NULL, "
                   "rel_path TEXT)"));
  (void)r2;
  for (const char* sql :
       {"CREATE INDEX loc_by_item ON location_entries (item_id) USING HASH",
        "CREATE INDEX loc_by_archive ON location_entries (archive_id) "
        "USING HASH"}) {
    Result<db::ResultSet> r = db_->Execute(sql);
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return r.status();
    }
  }
  return Status::Ok();
}

Status NameMapper::RegisterArchive(int64_t archive_id,
                                   const std::string& type,
                                   const std::string& path_prefix) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute("INSERT INTO archives VALUES (?, ?, ?, TRUE)",
                   {db::Value::Int(archive_id), db::Value::Text(type),
                    db::Value::Text(path_prefix)}));
  (void)r;
  return Status::Ok();
}

Status NameMapper::AddLocation(int64_t item_id, NameType type,
                               int64_t archive_id,
                               const std::string& rel_path) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute(
          "INSERT INTO location_entries VALUES (?, ?, ?, ?, ?)",
          {db::Value::Int(EntryIds()->Next()), db::Value::Int(item_id),
           db::Value::Text(NameTypeName(type)), db::Value::Int(archive_id),
           db::Value::Text(rel_path)}));
  (void)r;
  CacheEraseItem(item_id);
  return Status::Ok();
}

std::string NameMapper::RootFor(NameType type) const {
  switch (type) {
    case NameType::kFilename:
      return config_.GetString("root.filename", "");
    case NameType::kUrl:
      return config_.GetString("root.url", "http://hedc/data");
    case NameType::kTupleId:
      return config_.GetString("root.tuple", "hedc://tuple");
  }
  return "";
}

Result<ResolvedName> NameMapper::ResolveUncached(int64_t item_id,
                                                 NameType type) {
  db_queries_->Add();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet entries,
      db_->Execute("SELECT archive_id, rel_path FROM location_entries "
                   "WHERE item_id = ? AND name_type = ?",
                   {db::Value::Int(item_id),
                    db::Value::Text(NameTypeName(type))}));
  if (entries.rows.empty()) {
    return Status::NotFound(
        StrFormat("no %s location for item %lld", NameTypeName(type),
                  static_cast<long long>(item_id)));
  }
  int64_t archive_id = entries.Get(0, "archive_id").AsInt();
  std::string rel_path = entries.Get(0, "rel_path").AsText();

  db_queries_->Add();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet arch,
      db_->Execute("SELECT path_prefix, online FROM archives "
                   "WHERE archive_id = ?",
                   {db::Value::Int(archive_id)}));
  if (arch.rows.empty()) {
    return Status::Corruption(
        StrFormat("location entry references unknown archive %lld",
                  static_cast<long long>(archive_id)));
  }
  std::string prefix = arch.Get(0, "path_prefix").AsText();
  bool online = arch.Get(0, "online").AsBool();

  if (!online) {
    return Status::Unavailable(
        StrFormat("archive %lld is offline",
                  static_cast<long long>(archive_id)));
  }

  ResolvedName out;
  out.type = type;
  out.archive_id = archive_id;
  out.rel_path = rel_path + "/" + std::to_string(item_id);
  std::string root = RootFor(type);
  out.name = root;
  if (!out.name.empty() && !prefix.empty()) out.name += "/";
  out.name += prefix;
  if (!out.name.empty()) out.name += "/";
  out.name += out.rel_path;
  return out;
}

Result<ResolvedName> NameMapper::Resolve(int64_t item_id, NameType type) {
  resolutions_->Add();
  ScopedTimer timer(resolve_us_);

  ResolvedName cached;
  if (CacheGet(item_id, type, &cached)) {
    cache_hits_->Add();
    return cached;
  }
  cache_misses_->Add();
  // Snapshot before the queries: if a relocation bumps the generation
  // while we read, CachePut refuses to install the (possibly stale)
  // result. Misses and offline archives are never cached.
  uint64_t gen = cache_gen_.load(std::memory_order_acquire);

  Result<ResolvedName> resolved = ResolveUncached(item_id, type);
  if (!resolved.ok()) {
    misses_->Add();
    return resolved;
  }
  CachePut(gen, item_id, type, resolved.value());
  return resolved;
}

Result<std::vector<ResolvedName>> NameMapper::ResolveAll(int64_t item_id) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet entries,
      db_->Execute("SELECT name_type FROM location_entries WHERE item_id = ?",
                   {db::Value::Int(item_id)}));
  std::vector<ResolvedName> out;
  for (size_t i = 0; i < entries.num_rows(); ++i) {
    HEDC_ASSIGN_OR_RETURN(
        NameType type,
        NameTypeFromText(entries.Get(i, "name_type").AsText()));
    HEDC_ASSIGN_OR_RETURN(ResolvedName name, Resolve(item_id, type));
    out.push_back(std::move(name));
  }
  return out;
}

Status NameMapper::RelocateArchive(int64_t from_archive,
                                   int64_t to_archive) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute("UPDATE location_entries SET archive_id = ? "
                   "WHERE archive_id = ?",
                   {db::Value::Int(to_archive),
                    db::Value::Int(from_archive)}));
  (void)r;
  // Any cached name may point into the old archive; drop everything.
  InvalidateCache();
  return Status::Ok();
}

Status NameMapper::Remount(int64_t archive_id,
                           const std::string& new_prefix) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute("UPDATE archives SET path_prefix = ? WHERE archive_id = ?",
                   {db::Value::Text(new_prefix),
                    db::Value::Int(archive_id)}));
  if (r.affected_rows == 0) {
    return Status::NotFound("archive " + std::to_string(archive_id));
  }
  // The cache has no archive→item reverse index; drop everything.
  InvalidateCache();
  return Status::Ok();
}

Status NameMapper::MoveItem(int64_t item_id, NameType type,
                            int64_t new_archive,
                            const std::string& new_rel_path) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute("UPDATE location_entries SET archive_id = ?, "
                   "rel_path = ? WHERE item_id = ? AND name_type = ?",
                   {db::Value::Int(new_archive),
                    db::Value::Text(new_rel_path), db::Value::Int(item_id),
                    db::Value::Text(NameTypeName(type))}));
  if (r.affected_rows == 0) {
    return Status::NotFound(
        StrFormat("no %s location for item %lld", NameTypeName(type),
                  static_cast<long long>(item_id)));
  }
  CacheEraseItem(item_id);
  return Status::Ok();
}

Status NameMapper::RemoveLocations(int64_t item_id) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute("DELETE FROM location_entries WHERE item_id = ?",
                   {db::Value::Int(item_id)}));
  (void)r;
  CacheEraseItem(item_id);
  return Status::Ok();
}

}  // namespace hedc::archive
