#include "dm/session.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/strings.h"

namespace hedc::dm {

namespace {

struct SessionMetrics {
  Counter* hits;
  Counter* creates;
  Gauge* cache_size;
  Histogram* get_us;
};

const SessionMetrics& Metrics() {
  static const SessionMetrics kMetrics = [] {
    MetricsRegistry* registry = MetricsRegistry::Default();
    return SessionMetrics{registry->GetCounter("dm.sessions.hits"),
                          registry->GetCounter("dm.sessions.creates"),
                          registry->GetGauge("dm.sessions.cache_size"),
                          registry->GetHistogram("dm.sessions.get_us")};
  }();
  return kMetrics;
}

}  // namespace

const char* SessionKindName(SessionKind kind) {
  switch (kind) {
    case SessionKind::kAnalysis:
      return "analysis";
    case SessionKind::kHle:
      return "hle";
    case SessionKind::kCatalog:
      return "catalog";
  }
  return "?";
}

std::string SessionManager::KeyOf(const std::string& ip,
                                  const std::string& cookie,
                                  SessionKind kind) const {
  return ip + "|" + cookie + "|" + SessionKindName(kind);
}

Result<Session> SessionManager::GetOrCreate(const UserProfile& profile,
                                            const std::string& client_ip,
                                            const std::string& cookie,
                                            SessionKind kind) {
  std::string key = KeyOf(client_ip, cookie, kind);
  ScopedTimer timer(Metrics().get_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      Metrics().hits->Add();
      it->second.last_used = clock_->Now();
      lru_.remove(key);
      lru_.push_front(key);
      return it->second;
    }
  }

  // Creation pays the configured setup cost (outside the lock, so a
  // costly creation does not serialize unrelated lookups).
  clock_->SleepFor(options_.session_setup_cost);
  Session session;
  session.session_id = ids_.Next();
  session.profile = profile;
  session.kind = kind;
  session.client_ip = client_ip;
  session.cookie = cookie;
  session.created_at = clock_->Now();
  session.last_used = session.created_at;
  // Scope reads: non-super users see public tuples or their own (§5.5:
  // "the system typically appends the user id to all queries").
  if (profile.is_super) {
    session.view_predicate = "";
  } else {
    session.view_predicate = StrFormat(
        "(is_public = TRUE OR owner_id = %lld)",
        static_cast<long long>(profile.user_id));
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++sessions_created_;
  Metrics().creates->Add();
  cache_[key] = session;
  lru_.push_front(key);
  EvictIfNeeded();
  Metrics().cache_size->Set(static_cast<int64_t>(cache_.size()));
  return session;
}

void SessionManager::Invalidate(const std::string& client_ip,
                                const std::string& cookie) {
  std::lock_guard<std::mutex> lock(mu_);
  for (SessionKind kind : {SessionKind::kAnalysis, SessionKind::kHle,
                           SessionKind::kCatalog}) {
    std::string key = KeyOf(client_ip, cookie, kind);
    cache_.erase(key);
    lru_.remove(key);
  }
  Metrics().cache_size->Set(static_cast<int64_t>(cache_.size()));
}

size_t SessionManager::CacheSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

void SessionManager::EvictIfNeeded() {
  while (cache_.size() > options_.max_sessions && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace hedc::dm
