// Sessions and the session cache (§5.3).
//
// "Profile, status information and view are stored in sessions. ...
// Creating database connections and user sessions are the two most
// expensive parts of request processing. ... The DM caches up to three
// sessions per user (one for analysis, HLEs, and catalogues each). The
// cache lookup algorithm uses the network IP and cookies to match clients
// with their sessions."
#ifndef HEDC_DM_SESSION_H_
#define HEDC_DM_SESSION_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>

#include "core/clock.h"
#include "core/ids.h"
#include "core/status.h"
#include "dm/users.h"

namespace hedc::dm {

enum class SessionKind { kAnalysis = 0, kHle = 1, kCatalog = 2 };

const char* SessionKindName(SessionKind kind);

struct Session {
  int64_t session_id = 0;
  UserProfile profile;
  SessionKind kind = SessionKind::kHle;
  std::string client_ip;
  std::string cookie;
  Micros created_at = 0;
  Micros last_used = 0;
  // The "temporary view (to speed up subsequent data access)": the query
  // predicate fragment this session's reads are scoped by.
  std::string view_predicate;
  // Request-tracing id for the request currently using this session copy.
  // Set per request by the caller (not cached); 0 = untraced.
  int64_t trace_id = 0;
};

class SessionManager {
 public:
  struct Options {
    Micros session_setup_cost = 0;
    size_t max_sessions = 1024;  // global LRU bound
  };

  SessionManager(Clock* clock, Options options)
      : clock_(clock), options_(options) {}

  // Returns a cached session for (ip, cookie, kind) or creates one,
  // charging the setup cost. The profile is only consulted on creation.
  Result<Session> GetOrCreate(const UserProfile& profile,
                              const std::string& client_ip,
                              const std::string& cookie, SessionKind kind);

  // Explicitly drops all sessions for a cookie (logout).
  void Invalidate(const std::string& client_ip, const std::string& cookie);

  size_t CacheSize() const;
  int64_t sessions_created() const { return sessions_created_; }
  int64_t cache_hits() const { return cache_hits_; }

 private:
  std::string KeyOf(const std::string& ip, const std::string& cookie,
                    SessionKind kind) const;
  void EvictIfNeeded();

  Clock* clock_;
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Session> cache_;
  std::list<std::string> lru_;  // front = most recent
  IdGenerator ids_{1};
  int64_t sessions_created_ = 0;
  int64_t cache_hits_ = 0;
};

}  // namespace hedc::dm

#endif  // HEDC_DM_SESSION_H_
