#include "db/checkpoint.h"

#include <cstdio>

#include "core/crc32.h"
#include "core/strings.h"
#include "db/wal.h"

namespace hedc::db {

namespace {

constexpr uint32_t kSnapshotMagic = 0x48535031;  // "HSP1"

std::string CreateTableSql(const std::string& name, const Schema& schema) {
  std::string sql = "CREATE TABLE " + name + " (";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const ColumnDef& col = schema.column(i);
    if (i > 0) sql += ", ";
    sql += col.name;
    sql += ' ';
    switch (col.type) {
      case ValueType::kInt:
        sql += "INT";
        break;
      case ValueType::kReal:
        sql += "REAL";
        break;
      case ValueType::kText:
        sql += "TEXT";
        break;
      case ValueType::kBool:
        sql += "BOOL";
        break;
      case ValueType::kBlob:
        sql += "BLOB";
        break;
      case ValueType::kNull:
        sql += "TEXT";
        break;
    }
    if (col.primary_key) sql += " PRIMARY KEY";
    if (col.not_null) sql += " NOT NULL";
  }
  sql += ")";
  return sql;
}

}  // namespace

Status WriteSnapshot(Database* db, const std::string& snapshot_path) {
  ByteBuffer payload;
  std::vector<std::string> names = db->TableNames();
  payload.PutVarint(names.size());
  for (const std::string& name : names) {
    const Table* table = db->GetTable(name);
    if (table == nullptr) {
      return Status::Internal("table vanished during snapshot: " + name);
    }
    payload.PutString(name);
    // Schema.
    const Schema& schema = table->schema();
    payload.PutVarint(schema.num_columns());
    for (const ColumnDef& col : schema.columns()) {
      payload.PutString(col.name);
      payload.PutU8(static_cast<uint8_t>(col.type));
      payload.PutU8((col.not_null ? 1 : 0) | (col.primary_key ? 2 : 0));
    }
    // Indexes, minus the primary-key index CREATE TABLE rebuilds.
    const IndexDef* pkey = table->primary_key_index();
    payload.PutVarint(table->indexes().size() - (pkey != nullptr ? 1 : 0));
    for (const IndexDef& def : table->indexes()) {
      if (&def == pkey) continue;
      payload.PutString(def.name);
      payload.PutString(schema.column(def.column).name);
      payload.PutU8(def.kind == IndexKind::kHash ? 1 : 0);
    }
    // Rows.
    payload.PutVarint(table->num_rows());
    table->Scan([&payload](int64_t row_id, const Row& row) {
      payload.PutSignedVarint(row_id);
      EncodeRow(row, &payload);
      return true;
    });
  }

  std::string tmp_path = snapshot_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open snapshot temp file: " + tmp_path);
  }
  ByteBuffer header;
  header.PutU32(kSnapshotMagic);
  header.PutU32(Crc32(payload.data()));
  header.PutU64(payload.size());
  bool ok =
      std::fwrite(header.data().data(), 1, header.size(), f) ==
          header.size() &&
      std::fwrite(payload.data().data(), 1, payload.size(), f) ==
          payload.size();
  std::fflush(f);
  std::fclose(f);
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::Internal("snapshot write failed");
  }
  if (std::rename(tmp_path.c_str(), snapshot_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("snapshot rename failed");
  }
  return Status::Ok();
}

Status LoadSnapshot(Database* db, const std::string& snapshot_path) {
  std::FILE* f = std::fopen(snapshot_path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("snapshot: " + snapshot_path);
  std::vector<uint8_t> contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.insert(contents.end(), buf, buf + n);
  }
  std::fclose(f);

  ByteReader reader(contents);
  uint32_t magic = 0, crc = 0;
  uint64_t payload_size = 0;
  HEDC_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kSnapshotMagic) {
    return Status::Corruption("not a snapshot file (bad magic)");
  }
  HEDC_RETURN_IF_ERROR(reader.GetU32(&crc));
  HEDC_RETURN_IF_ERROR(reader.GetU64(&payload_size));
  if (payload_size != reader.remaining()) {
    return Status::Corruption("snapshot truncated");
  }
  if (Crc32(contents.data() + reader.position(), payload_size) != crc) {
    return Status::Corruption("snapshot CRC mismatch");
  }

  uint64_t num_tables = 0;
  HEDC_RETURN_IF_ERROR(reader.GetVarint(&num_tables));
  for (uint64_t t = 0; t < num_tables; ++t) {
    std::string name;
    HEDC_RETURN_IF_ERROR(reader.GetString(&name));
    uint64_t num_cols = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&num_cols));
    std::vector<ColumnDef> cols;
    for (uint64_t c = 0; c < num_cols; ++c) {
      ColumnDef col;
      HEDC_RETURN_IF_ERROR(reader.GetString(&col.name));
      uint8_t type = 0, flags = 0;
      HEDC_RETURN_IF_ERROR(reader.GetU8(&type));
      HEDC_RETURN_IF_ERROR(reader.GetU8(&flags));
      col.type = static_cast<ValueType>(type);
      col.not_null = (flags & 1) != 0;
      col.primary_key = (flags & 2) != 0;
      cols.push_back(std::move(col));
    }
    Schema schema(cols);
    Result<ResultSet> created =
        db->Execute(CreateTableSql(name, schema));
    if (!created.ok()) return created.status();

    uint64_t num_indexes = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&num_indexes));
    Table* table = db->GetTable(name);
    if (table == nullptr) return Status::Internal("snapshot table missing");
    for (uint64_t i = 0; i < num_indexes; ++i) {
      std::string index_name, column;
      uint8_t hash = 0;
      HEDC_RETURN_IF_ERROR(reader.GetString(&index_name));
      HEDC_RETURN_IF_ERROR(reader.GetString(&column));
      HEDC_RETURN_IF_ERROR(reader.GetU8(&hash));
      HEDC_RETURN_IF_ERROR(table->CreateIndex(
          index_name, column,
          hash != 0 ? IndexKind::kHash : IndexKind::kBTree));
    }
    uint64_t num_rows = 0;
    HEDC_RETURN_IF_ERROR(reader.GetVarint(&num_rows));
    for (uint64_t r = 0; r < num_rows; ++r) {
      int64_t row_id = 0;
      HEDC_RETURN_IF_ERROR(reader.GetSignedVarint(&row_id));
      Row row;
      HEDC_RETURN_IF_ERROR(DecodeRow(&reader, &row));
      HEDC_RETURN_IF_ERROR(table->InsertWithId(row_id, std::move(row)));
    }
  }
  return Status::Ok();
}

Status Checkpoint(Database* db, const std::string& snapshot_path,
                  const std::string& wal_path) {
  if (db->in_transaction()) {
    return Status::FailedPrecondition(
        "cannot checkpoint with an open transaction");
  }
  HEDC_RETURN_IF_ERROR(WriteSnapshot(db, snapshot_path));
  return db->ResetWal(wal_path);
}

Status OpenWithCheckpoint(Database* db, const std::string& snapshot_path,
                          const std::string& wal_path) {
  Status loaded = LoadSnapshot(db, snapshot_path);
  if (!loaded.ok() && !loaded.IsNotFound()) return loaded;
  return db->OpenWal(wal_path);
}

}  // namespace hedc::db
