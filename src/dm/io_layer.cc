#include "dm/io_layer.h"

#include "core/strings.h"

namespace hedc::dm {

IoLayer::IoLayer(db::Database* db, archive::ArchiveManager* archives,
                 archive::NameMapper* mapper)
    : db_(db), archives_(archives), mapper_(mapper) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  files_read_metric_ = metrics->GetCounter("io.files_read");
  files_written_metric_ = metrics->GetCounter("io.files_written");
  bytes_read_metric_ = metrics->GetCounter("io.bytes_read");
  bytes_written_metric_ = metrics->GetCounter("io.bytes_written");
}

void IoLayer::RouteTable(const std::string& table, db::Database* target) {
  routes_[ToLower(table)] = target;
}

db::Database* IoLayer::DatabaseFor(const std::string& table) const {
  auto it = routes_.find(ToLower(table));
  return it == routes_.end() ? db_ : it->second;
}

Result<db::ResultSet> IoLayer::Query(const QuerySpec& spec) {
  std::vector<db::Value> params;
  HEDC_ASSIGN_OR_RETURN(std::string sql, spec.ToSql(&params));
  queries_.fetch_add(1, std::memory_order_relaxed);
  return DatabaseFor(spec.table())->Execute(sql, params);
}

Result<db::ResultSet> IoLayer::Update(const std::string& table,
                                      std::string_view sql,
                                      const std::vector<db::Value>& params) {
  updates_.fetch_add(1, std::memory_order_relaxed);
  return DatabaseFor(table)->Execute(sql, params);
}

Result<uint64_t> IoLayer::StreamItemFile(int64_t item_id,
                                         const ChunkSink& sink,
                                         size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = kDefaultChunkBytes;
  HEDC_ASSIGN_OR_RETURN(
      archive::ResolvedName name,
      mapper_->Resolve(item_id, archive::NameType::kFilename));
  archive::Archive* arch = archives_->Get(name.archive_id);
  if (arch == nullptr) {
    return Status::Unavailable(
        StrFormat("archive %lld offline or unknown",
                  static_cast<long long>(name.archive_id)));
  }
  std::vector<uint8_t> chunk(chunk_bytes);
  uint64_t offset = 0;
  while (true) {
    HEDC_ASSIGN_OR_RETURN(
        size_t n, arch->ReadRange(name.rel_path, offset, chunk.data(),
                                  chunk.size()));
    if (n == 0) break;
    bytes_read_.fetch_add(static_cast<int64_t>(n),
                          std::memory_order_relaxed);
    bytes_read_metric_->Add(static_cast<int64_t>(n));
    HEDC_RETURN_IF_ERROR(sink(offset, chunk.data(), n));
    offset += n;
    if (n < chunk.size()) break;  // short chunk: end of file
  }
  file_reads_.fetch_add(1, std::memory_order_relaxed);
  files_read_metric_->Add();
  return offset;
}

Result<std::vector<uint8_t>> IoLayer::ReadItemFile(int64_t item_id) {
  std::vector<uint8_t> data;
  HEDC_ASSIGN_OR_RETURN(
      uint64_t total,
      StreamItemFile(item_id,
                     [&data](uint64_t, const uint8_t* p, size_t n) {
                       data.insert(data.end(), p, p + n);
                       return Status::Ok();
                     }));
  (void)total;
  return data;
}

Status IoLayer::WriteItemFile(int64_t item_id, int64_t archive_id,
                              const std::string& rel_path,
                              const std::vector<uint8_t>& data) {
  archive::Archive* arch = archives_->Get(archive_id);
  if (arch == nullptr) {
    return Status::Unavailable(
        StrFormat("archive %lld offline or unknown",
                  static_cast<long long>(archive_id)));
  }
  // Physical path mirrors the name-mapping scheme: rel_path/item_id.
  std::string path = rel_path + "/" + std::to_string(item_id);
  HEDC_RETURN_IF_ERROR(arch->Write(path, data));
  HEDC_RETURN_IF_ERROR(mapper_->AddLocation(
      item_id, archive::NameType::kFilename, archive_id, rel_path));
  file_writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(static_cast<int64_t>(data.size()),
                           std::memory_order_relaxed);
  files_written_metric_->Add();
  bytes_written_metric_->Add(static_cast<int64_t>(data.size()));
  return Status::Ok();
}

Status IoLayer::DeleteItemFile(int64_t item_id) {
  HEDC_ASSIGN_OR_RETURN(
      archive::ResolvedName name,
      mapper_->Resolve(item_id, archive::NameType::kFilename));
  archive::Archive* arch = archives_->Get(name.archive_id);
  if (arch != nullptr) {
    Status s = arch->Delete(name.rel_path);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return mapper_->RemoveLocations(item_id);
}

}  // namespace hedc::dm
