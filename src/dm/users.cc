#include "dm/users.h"

#include "core/strings.h"

namespace hedc::dm {

UserProfile AnonymousUser() {
  UserProfile profile;
  profile.user_id = 0;
  profile.name = "anonymous";
  profile.can_browse = true;
  return profile;
}

std::string HashPassword(const std::string& password) {
  // FNV-1a, hex-encoded. Placeholder for a real KDF; uniform across the
  // repo so tests are deterministic.
  uint64_t h = 1469598103934665603ull;
  for (char c : password) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(h));
}

namespace {

UserProfile ProfileFromRow(const db::ResultSet& rs, size_t row) {
  UserProfile profile;
  profile.user_id = rs.Get(row, "user_id").AsInt();
  profile.name = rs.Get(row, "name").AsText();
  profile.can_browse = rs.Get(row, "can_browse").AsBool();
  profile.can_download = rs.Get(row, "can_download").AsBool();
  profile.can_analyze = rs.Get(row, "can_analyze").AsBool();
  profile.can_upload = rs.Get(row, "can_upload").AsBool();
  profile.is_super = rs.Get(row, "is_super").AsBool();
  return profile;
}

}  // namespace

UserManager::UserManager(db::Database* db) : db_(db) {
  Result<db::ResultSet> rs = db_->Execute("SELECT MAX(user_id) FROM users");
  if (rs.ok() && !rs.value().rows.empty()) {
    ids_.AdvancePast(rs.value().rows[0][0].AsInt());
  }
}

Result<int64_t> UserManager::CreateUser(const std::string& name,
                                        const std::string& password,
                                        const UserProfile& rights) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet existing,
      db_->Execute("SELECT COUNT(*) FROM users WHERE name = ?",
                   {db::Value::Text(name)}));
  if (existing.rows[0][0].AsInt() > 0) {
    return Status::AlreadyExists("user " + name);
  }
  int64_t user_id = ids_.Next();
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet r,
      db_->Execute(
          "INSERT INTO users VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'active', 0)",
          {db::Value::Int(user_id), db::Value::Text(name),
           db::Value::Text(HashPassword(password)),
           db::Value::Bool(rights.can_browse),
           db::Value::Bool(rights.can_download),
           db::Value::Bool(rights.can_analyze),
           db::Value::Bool(rights.can_upload),
           db::Value::Bool(rights.is_super)}));
  (void)r;
  return user_id;
}

Result<UserProfile> UserManager::Authenticate(const std::string& name,
                                              const std::string& password) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet rs,
      db_->Execute("SELECT * FROM users WHERE name = ?",
                   {db::Value::Text(name)}));
  if (rs.rows.empty()) {
    return Status::PermissionDenied("unknown user " + name);
  }
  if (rs.Get(0, "password_hash").AsText() != HashPassword(password)) {
    return Status::PermissionDenied("bad password for " + name);
  }
  if (rs.Get(0, "status").AsText() != "active") {
    return Status::PermissionDenied("account disabled: " + name);
  }
  UserProfile profile = ProfileFromRow(rs, 0);
  // The paper's authentication path performs one update (session
  // bookkeeping) alongside the profile query.
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet upd,
      db_->Execute(
          "UPDATE users SET sessions_open = sessions_open + 1 "
          "WHERE user_id = ?",
          {db::Value::Int(profile.user_id)}));
  (void)upd;
  return profile;
}

Result<UserProfile> UserManager::GetProfile(int64_t user_id) {
  HEDC_ASSIGN_OR_RETURN(
      db::ResultSet rs,
      db_->Execute("SELECT * FROM users WHERE user_id = ?",
                   {db::Value::Int(user_id)}));
  if (rs.rows.empty()) {
    return Status::NotFound(StrFormat("user %lld",
                                      static_cast<long long>(user_id)));
  }
  return ProfileFromRow(rs, 0);
}

}  // namespace hedc::dm
