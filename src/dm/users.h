// User profiles and access control (§5.5).
//
// "HEDC requires an account to access its more advanced features. Non
// authorized users may only browse public data. Depending on their user
// profile, authorized users may in addition download, analyse and upload
// data." Authentication costs one DBMS query plus one update (§7.2).
#ifndef HEDC_DM_USERS_H_
#define HEDC_DM_USERS_H_

#include <cstdint>
#include <string>

#include "core/ids.h"
#include "core/status.h"
#include "db/database.h"

namespace hedc::dm {

struct UserProfile {
  int64_t user_id = 0;
  std::string name;
  bool can_browse = true;
  bool can_download = false;
  bool can_analyze = false;
  bool can_upload = false;
  bool is_super = false;  // may see/edit all committed data (§6.1)
};

// The anonymous profile: public browsing only.
UserProfile AnonymousUser();

// Deterministic (non-cryptographic) password hash for the repo.
std::string HashPassword(const std::string& password);

class UserManager {
 public:
  // Seeds the user-id generator past MAX(user_id), so a node that
  // replays its log, or a second node on the same DBMS, does not reuse
  // an id.
  explicit UserManager(db::Database* db);

  // Creates a user; fails on duplicate names.
  Result<int64_t> CreateUser(const std::string& name,
                             const std::string& password,
                             const UserProfile& rights);

  // One indexed query (profile fetch) + one update (session counter), as
  // in the paper's measurement methodology.
  Result<UserProfile> Authenticate(const std::string& name,
                                   const std::string& password);

  Result<UserProfile> GetProfile(int64_t user_id);

 private:
  db::Database* db_;
  IdGenerator ids_{1};
};

}  // namespace hedc::dm

#endif  // HEDC_DM_USERS_H_
