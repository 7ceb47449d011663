#include "dm/semantic_layer.h"

#include <array>
#include <string_view>
#include <utility>
#include <variant>

#include "core/strings.h"

namespace hedc::dm {

namespace {

// One record field and the column it is decoded from.
template <typename Record>
struct Field {
  std::string_view column;
  std::variant<int64_t Record::*, int Record::*, double Record::*,
               bool Record::*, std::string Record::*>
      member;
};

void Assign(const db::Value& v, int64_t* out) { *out = v.AsInt(); }
void Assign(const db::Value& v, int* out) {
  *out = static_cast<int>(v.AsInt());
}
void Assign(const db::Value& v, double* out) { *out = v.AsReal(); }
void Assign(const db::Value& v, bool* out) { *out = v.AsBool(); }
// Text moves out of the decoded cell; any other type prints as AsText.
void Assign(db::Value& v, std::string* out) {
  if (v.type() == db::ValueType::kText) {
    *out = v.TakeText();
  } else {
    *out = v.AsText();
  }
}

const Field<HleRecord> kHleFields[] = {
    {"hle_id", &HleRecord::hle_id},
    {"owner_id", &HleRecord::owner_id},
    {"is_public", &HleRecord::is_public},
    {"event_type", &HleRecord::event_type},
    {"t_start", &HleRecord::t_start},
    {"t_end", &HleRecord::t_end},
    {"e_min", &HleRecord::e_min},
    {"e_max", &HleRecord::e_max},
    {"peak_rate", &HleRecord::peak_rate},
    {"peak_energy", &HleRecord::peak_energy},
    {"photon_count", &HleRecord::photon_count},
    {"unit_id", &HleRecord::unit_id},
    {"calibration_version", &HleRecord::calibration_version},
    {"version", &HleRecord::version},
    {"superseded_by", &HleRecord::superseded_by},
    {"label", &HleRecord::label},
    {"notes", &HleRecord::notes},
    {"created_time", &HleRecord::created_time},
    {"source", &HleRecord::source},
    {"quality", &HleRecord::quality},
};

const Field<AnaRecord> kAnaFields[] = {
    {"ana_id", &AnaRecord::ana_id},
    {"hle_id", &AnaRecord::hle_id},
    {"owner_id", &AnaRecord::owner_id},
    {"is_public", &AnaRecord::is_public},
    {"routine", &AnaRecord::routine},
    {"parameters", &AnaRecord::parameters},
    {"param_hash", &AnaRecord::param_hash},
    {"status", &AnaRecord::status},
    {"quality", &AnaRecord::quality},
    {"t_start", &AnaRecord::t_start},
    {"t_end", &AnaRecord::t_end},
    {"e_min", &AnaRecord::e_min},
    {"e_max", &AnaRecord::e_max},
    {"photon_count", &AnaRecord::photon_count},
    {"image_bytes", &AnaRecord::image_bytes},
    {"log_excerpt", &AnaRecord::log_excerpt},
    {"calibration_version", &AnaRecord::calibration_version},
    {"version", &AnaRecord::version},
    {"superseded_by", &AnaRecord::superseded_by},
    {"created_time", &AnaRecord::created_time},
    {"duration_ms", &AnaRecord::duration_ms},
    {"peak_value", &AnaRecord::peak_value},
    {"pixels", &AnaRecord::pixels},
    {"notes", &AnaRecord::notes},
};

const Field<CatalogRecord> kCatalogFields[] = {
    {"catalog_id", &CatalogRecord::catalog_id},
    {"owner_id", &CatalogRecord::owner_id},
    {"is_public", &CatalogRecord::is_public},
    {"name", &CatalogRecord::name},
    {"description", &CatalogRecord::description},
    {"created_time", &CatalogRecord::created_time},
};

// Decodes every row of `rs` into a record, moving text values out of the
// result set rather than copying them. Each field's column ordinal is
// looked up by name once per result set, so a table whose columns are
// reordered or extended decodes the same; a column the result set lacks
// reads as Null.
template <typename Record, size_t N>
std::vector<Record> DecodeRows(db::ResultSet rs,
                               const Field<Record> (&fields)[N]) {
  db::Value null;
  std::array<std::optional<size_t>, N> ordinals;
  for (size_t f = 0; f < N; ++f) {
    ordinals[f] = rs.ColumnIndex(fields[f].column);
  }
  std::vector<Record> out(rs.num_rows());
  for (size_t i = 0; i < rs.num_rows(); ++i) {
    db::Row& row = rs.rows[i];
    for (size_t f = 0; f < N; ++f) {
      const std::optional<size_t>& ordinal = ordinals[f];
      db::Value& v = ordinal && *ordinal < row.size() ? row[*ordinal] : null;
      std::visit([&](auto member) { Assign(v, &(out[i].*member)); },
                 fields[f].member);
    }
  }
  return out;
}

// Seeds an id generator past the current MAX(column) so multiple DM
// nodes sharing one DBMS do not collide.
void SeedIds(IoLayer* io, const std::string& table,
             const std::string& column, IdGenerator* ids) {
  Result<db::ResultSet> rs =
      io->DatabaseFor(table)->Execute("SELECT MAX(" + column + ") FROM " +
                                      table);
  if (rs.ok() && !rs.value().rows.empty()) {
    ids->AdvancePast(rs.value().rows[0][0].AsInt());
  }
}

}  // namespace

SemanticLayer::SemanticLayer(IoLayer* io, Clock* clock)
    : io_(io), clock_(clock) {
  SeedIds(io_, "hle", "hle_id", &hle_ids_);
  SeedIds(io_, "ana", "ana_id", &ana_ids_);
  SeedIds(io_, "catalogs", "catalog_id", &catalog_ids_);
  SeedIds(io_, "catalog_members", "member_id", &member_ids_);
  SeedIds(io_, "lineage", "lineage_id", &lineage_ids_);
}

double SemanticLayer::NowSeconds() const {
  return static_cast<double>(clock_->Now()) / kMicrosPerSecond;
}

bool SemanticLayer::Visible(const Session& session, int64_t owner_id,
                            bool is_public) {
  return is_public || session.profile.is_super ||
         session.profile.user_id == owner_id;
}

Status SemanticLayer::RequireOwnership(const Session& session,
                                       int64_t owner_id) {
  if (session.profile.is_super || session.profile.user_id == owner_id) {
    return Status::Ok();
  }
  return Status::PermissionDenied("only the owner may modify this entity");
}

int64_t SemanticLayer::HashParams(const std::string& routine,
                                  const std::string& canonical_params) {
  uint64_t h = 1469598103934665603ull;
  for (char c : routine) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= '|';
  h *= 1099511628211ull;
  for (char c : canonical_params) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int64_t>(h & 0x7fffffffffffffffull);
}

Result<int64_t> SemanticLayer::CreateHle(const Session& session,
                                         HleRecord record) {
  record.hle_id = hle_ids_.Next();
  record.owner_id = session.profile.user_id;
  if (record.created_time == 0) record.created_time = NowSeconds();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update(
          "hle",
          "INSERT INTO hle VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
          "?, ?, ?, ?, ?, ?, ?)",
          {db::Value::Int(record.hle_id), db::Value::Int(record.owner_id),
           db::Value::Bool(record.is_public),
           db::Value::Text(record.event_type),
           db::Value::Real(record.t_start), db::Value::Real(record.t_end),
           db::Value::Real(record.e_min), db::Value::Real(record.e_max),
           db::Value::Real(record.peak_rate),
           db::Value::Real(record.peak_energy),
           db::Value::Int(record.photon_count),
           db::Value::Int(record.unit_id),
           db::Value::Int(record.calibration_version),
           db::Value::Int(record.version),
           db::Value::Int(record.superseded_by),
           db::Value::Text(record.label), db::Value::Text(record.notes),
           db::Value::Real(record.created_time),
           db::Value::Text(record.source),
           db::Value::Real(record.quality)}));
  (void)r;
  return record.hle_id;
}

Result<HleRecord> SemanticLayer::GetHle(const Session& session,
                                        int64_t hle_id) {
  QuerySpec spec("hle");
  spec.Where("hle_id", CondOp::kEq, db::Value::Int(hle_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  if (rs.rows.empty()) {
    return Status::NotFound(StrFormat("HLE %lld",
                                      static_cast<long long>(hle_id)));
  }
  HleRecord record = std::move(DecodeRows(std::move(rs), kHleFields)[0]);
  if (!Visible(session, record.owner_id, record.is_public)) {
    // Indistinguishable from absent: privacy constraint (§5.3).
    return Status::NotFound(StrFormat("HLE %lld",
                                      static_cast<long long>(hle_id)));
  }
  return record;
}

Result<std::vector<HleRecord>> SemanticLayer::ListHles(
    const Session& session, double t_lo, double t_hi, int64_t limit) {
  QuerySpec spec("hle");
  spec.Where("t_start", CondOp::kGe, db::Value::Real(t_lo))
      .Where("t_start", CondOp::kLe, db::Value::Real(t_hi))
      .OrderBy("t_start");
  if (limit >= 0) spec.Limit(limit);
  if (!session.view_predicate.empty()) {
    spec.RawPredicate(session.view_predicate);
  }
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  return DecodeRows(std::move(rs), kHleFields);
}

Status SemanticLayer::SetHlePublic(const Session& session, int64_t hle_id,
                                   bool value) {
  HEDC_ASSIGN_OR_RETURN(HleRecord record, GetHle(session, hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "UPDATE hle SET is_public = ? WHERE hle_id = ?",
                  {db::Value::Bool(value), db::Value::Int(hle_id)}));
  (void)r;
  return Status::Ok();
}

Status SemanticLayer::DeleteHle(const Session& session, int64_t hle_id) {
  HEDC_ASSIGN_OR_RETURN(HleRecord record, GetHle(session, hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  // Integrity constraint (§5.3): "tuples belonging to an entity may not
  // be deleted if data dependencies exist".
  QuerySpec deps("ana");
  deps.CountOnly().Where("hle_id", CondOp::kEq, db::Value::Int(hle_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet count, io_->Query(deps));
  if (count.rows[0][0].AsInt() > 0) {
    return Status::FailedPrecondition(
        StrFormat("HLE %lld still has %lld analyses",
                  static_cast<long long>(hle_id),
                  static_cast<long long>(count.rows[0][0].AsInt())));
  }
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "DELETE FROM hle WHERE hle_id = ?",
                  {db::Value::Int(hle_id)}));
  (void)r;
  // Membership rows and files follow the entity.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet m,
      io_->Update("catalog_members",
                  "DELETE FROM catalog_members WHERE hle_id = ?",
                  {db::Value::Int(hle_id)}));
  (void)m;
  return Status::Ok();
}

Result<int64_t> SemanticLayer::SupersedeHle(const Session& session,
                                            int64_t old_hle_id,
                                            HleRecord new_record) {
  HEDC_ASSIGN_OR_RETURN(HleRecord old_record, GetHle(session, old_hle_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, old_record.owner_id));
  new_record.version = old_record.version + 1;
  HEDC_ASSIGN_OR_RETURN(int64_t new_id, CreateHle(session, new_record));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("hle", "UPDATE hle SET superseded_by = ? WHERE hle_id = ?",
                  {db::Value::Int(new_id), db::Value::Int(old_hle_id)}));
  (void)r;
  HEDC_RETURN_IF_ERROR(RecordLineage(new_id, old_hle_id, "supersede",
                                     new_record.calibration_version, ""));
  return new_id;
}

Result<int64_t> SemanticLayer::CreateAna(const Session& session,
                                         AnaRecord record) {
  // Referential integrity: the HLE must exist and be visible.
  HEDC_ASSIGN_OR_RETURN(HleRecord hle, GetHle(session, record.hle_id));
  record.ana_id = ana_ids_.Next();
  record.owner_id = session.profile.user_id;
  if (record.created_time == 0) record.created_time = NowSeconds();
  if (record.param_hash == 0) {
    record.param_hash = HashParams(record.routine, record.parameters);
  }
  // Entity transaction (§4.4): the ANA tuple and its lineage record
  // commit together.
  db::Database* target = io_->DatabaseFor("ana");
  HEDC_RETURN_IF_ERROR(target->Begin());
  Result<db::ResultSet> ins = target->Execute(
      "INSERT INTO ana VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
      "?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
      {db::Value::Int(record.ana_id), db::Value::Int(record.hle_id),
       db::Value::Int(record.owner_id), db::Value::Bool(record.is_public),
       db::Value::Text(record.routine), db::Value::Text(record.parameters),
       db::Value::Int(record.param_hash), db::Value::Text(record.status),
       db::Value::Real(record.quality), db::Value::Real(record.t_start),
       db::Value::Real(record.t_end), db::Value::Real(record.e_min),
       db::Value::Real(record.e_max), db::Value::Int(record.photon_count),
       db::Value::Int(record.image_bytes),
       db::Value::Text(record.log_excerpt),
       db::Value::Int(record.calibration_version),
       db::Value::Int(record.version), db::Value::Int(record.superseded_by),
       db::Value::Real(record.created_time),
       db::Value::Real(record.duration_ms),
       db::Value::Real(record.peak_value), db::Value::Int(record.pixels),
       db::Value::Text(record.notes)});
  if (!ins.ok()) {
    target->Rollback();
    return ins.status();
  }
  Result<db::ResultSet> lin = target->Execute(
      "INSERT INTO lineage VALUES (?, ?, ?, ?, ?, ?)",
      {db::Value::Int(lineage_ids_.Next()), db::Value::Int(record.ana_id),
       db::Value::Int(record.hle_id), db::Value::Text(record.routine),
       db::Value::Int(record.calibration_version),
       db::Value::Text(record.parameters)});
  if (!lin.ok()) {
    target->Rollback();
    return lin.status();
  }
  HEDC_RETURN_IF_ERROR(target->Commit());
  (void)hle;
  return record.ana_id;
}

Result<AnaRecord> SemanticLayer::GetAna(const Session& session,
                                        int64_t ana_id) {
  QuerySpec spec("ana");
  spec.Where("ana_id", CondOp::kEq, db::Value::Int(ana_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  if (rs.rows.empty()) {
    return Status::NotFound(StrFormat("ANA %lld",
                                      static_cast<long long>(ana_id)));
  }
  AnaRecord record = std::move(DecodeRows(std::move(rs), kAnaFields)[0]);
  if (!Visible(session, record.owner_id, record.is_public)) {
    return Status::NotFound(StrFormat("ANA %lld",
                                      static_cast<long long>(ana_id)));
  }
  return record;
}

Result<std::vector<AnaRecord>> SemanticLayer::ListAnalyses(
    const Session& session, int64_t hle_id) {
  QuerySpec spec("ana");
  spec.Where("hle_id", CondOp::kEq, db::Value::Int(hle_id))
      .OrderBy("ana_id");
  if (!session.view_predicate.empty()) {
    spec.RawPredicate(session.view_predicate);
  }
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  return DecodeRows(std::move(rs), kAnaFields);
}

Status SemanticLayer::DeleteAna(const Session& session, int64_t ana_id) {
  HEDC_ASSIGN_OR_RETURN(AnaRecord record, GetAna(session, ana_id));
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("ana", "DELETE FROM ana WHERE ana_id = ?",
                  {db::Value::Int(ana_id)}));
  (void)r;
  return Status::Ok();
}

Result<std::optional<AnaRecord>> SemanticLayer::FindExistingAnalysis(
    const Session& session, int64_t hle_id, const std::string& routine,
    const std::string& canonical_params) {
  int64_t hash = HashParams(routine, canonical_params);
  QuerySpec spec("ana");
  spec.Where("param_hash", CondOp::kEq, db::Value::Int(hash))
      .Where("hle_id", CondOp::kEq, db::Value::Int(hle_id));
  if (!session.view_predicate.empty()) {
    spec.RawPredicate(session.view_predicate);
  }
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  for (AnaRecord& record : DecodeRows(std::move(rs), kAnaFields)) {
    // The hash is an index accelerator; confirm the actual parameters.
    if (record.routine == routine &&
        record.parameters == canonical_params &&
        record.status == "done" && record.superseded_by == 0) {
      return std::optional<AnaRecord>(std::move(record));
    }
  }
  return std::optional<AnaRecord>();
}

Result<int64_t> SemanticLayer::CreateCatalog(const Session& session,
                                             std::string name,
                                             std::string description,
                                             bool is_public) {
  QuerySpec existing("catalogs");
  existing.CountOnly().Where("name", CondOp::kEq, db::Value::Text(name));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet count, io_->Query(existing));
  if (count.rows[0][0].AsInt() > 0) {
    return Status::AlreadyExists("catalog " + name);
  }
  int64_t catalog_id = catalog_ids_.Next();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("catalogs", "INSERT INTO catalogs VALUES (?, ?, ?, ?, ?, ?)",
                  {db::Value::Int(catalog_id),
                   db::Value::Int(session.profile.user_id),
                   db::Value::Bool(is_public), db::Value::Text(name),
                   db::Value::Text(description),
                   db::Value::Real(NowSeconds())}));
  (void)r;
  return catalog_id;
}

Result<CatalogRecord> SemanticLayer::GetCatalogByName(
    const Session& session, const std::string& name) {
  QuerySpec spec("catalogs");
  spec.Where("name", CondOp::kEq, db::Value::Text(name));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  if (rs.rows.empty()) return Status::NotFound("catalog " + name);
  CatalogRecord record =
      std::move(DecodeRows(std::move(rs), kCatalogFields)[0]);
  if (!Visible(session, record.owner_id, record.is_public)) {
    return Status::NotFound("catalog " + name);
  }
  return record;
}

Status SemanticLayer::AddToCatalog(const Session& session,
                                   int64_t catalog_id, int64_t hle_id) {
  // Both endpoints must exist and be visible (referential consistency).
  QuerySpec cat("catalogs");
  cat.Where("catalog_id", CondOp::kEq, db::Value::Int(catalog_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet cat_rs, io_->Query(cat));
  if (cat_rs.rows.empty()) {
    return Status::NotFound(StrFormat("catalog %lld",
                                      static_cast<long long>(catalog_id)));
  }
  CatalogRecord record =
      std::move(DecodeRows(std::move(cat_rs), kCatalogFields)[0]);
  HEDC_RETURN_IF_ERROR(RequireOwnership(session, record.owner_id));
  HEDC_ASSIGN_OR_RETURN(HleRecord hle, GetHle(session, hle_id));
  (void)hle;
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("catalog_members",
                  "INSERT INTO catalog_members VALUES (?, ?, ?)",
                  {db::Value::Int(member_ids_.Next()),
                   db::Value::Int(catalog_id), db::Value::Int(hle_id)}));
  (void)r;
  return Status::Ok();
}

Result<std::vector<int64_t>> SemanticLayer::ListCatalogHles(
    const Session& session, int64_t catalog_id) {
  // One join reads each member's HLE visibility columns; a member whose
  // HLE is gone has no HLE row and drops out of the inner join. Only the
  // HLEs this session may see are listed.
  QuerySpec spec("catalog_members");
  spec.Join("hle", "catalog_members.hle_id", "hle.hle_id")
      .Select("catalog_members.hle_id")
      .Select("hle.owner_id")
      .Select("hle.is_public")
      .Where("catalog_members.catalog_id", CondOp::kEq,
             db::Value::Int(catalog_id))
      .OrderBy("catalog_members.hle_id");
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<int64_t> out;
  for (const db::Row& member : rs.rows) {
    if (Visible(session, member[1].AsInt(), member[2].AsBool())) {
      out.push_back(member[0].AsInt());
    }
  }
  return out;
}

Result<int64_t> SemanticLayer::CountVisibleCatalogEntries(
    const Session& session, int64_t hle_id) {
  QuerySpec spec("catalog_members");
  spec.Select("catalog_id").Where("hle_id", CondOp::kEq,
                                  db::Value::Int(hle_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  int64_t visible = 0;
  for (const db::Row& member : rs.rows) {
    // One primary-key probe per entry, reading just the catalog's
    // visibility columns; an entry whose catalog is gone is not counted.
    QuerySpec probe("catalogs");
    probe.Select("owner_id")
        .Select("is_public")
        .Where("catalog_id", CondOp::kEq, member[0]);
    HEDC_ASSIGN_OR_RETURN(db::ResultSet catalog, io_->Query(probe));
    if (!catalog.rows.empty() &&
        Visible(session, catalog.rows[0][0].AsInt(),
                catalog.rows[0][1].AsBool())) {
      ++visible;
    }
  }
  return visible;
}

Status SemanticLayer::RecordLineage(int64_t item_id, int64_t source_item_id,
                                    const std::string& operation,
                                    int calibration_version,
                                    const std::string& parameters) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      io_->Update("lineage", "INSERT INTO lineage VALUES (?, ?, ?, ?, ?, ?)",
                  {db::Value::Int(lineage_ids_.Next()),
                   db::Value::Int(item_id), db::Value::Int(source_item_id),
                   db::Value::Text(operation),
                   db::Value::Int(calibration_version),
                   db::Value::Text(parameters)}));
  (void)r;
  return Status::Ok();
}

Result<std::vector<int64_t>> SemanticLayer::LineageSources(int64_t item_id) {
  QuerySpec spec("lineage");
  spec.Select("source_item_id")
      .Where("item_id", CondOp::kEq, db::Value::Int(item_id));
  HEDC_ASSIGN_OR_RETURN(db::ResultSet rs, io_->Query(spec));
  std::vector<int64_t> out;
  for (const db::Row& row : rs.rows) out.push_back(row[0].AsInt());
  return out;
}

}  // namespace hedc::dm
