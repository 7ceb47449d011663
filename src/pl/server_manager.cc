#include "pl/server_manager.h"

namespace hedc::pl {

IdlServerManager::IdlServerManager(std::string host_name, Options options)
    : host_name_(std::move(host_name)), options_(options) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  attempts_ = metrics->GetCounter("pl.invoke.attempts");
  retries_ = metrics->GetCounter("pl.invoke.retries");
  failures_ = metrics->GetCounter("pl.invoke.failures");
  restart_counter_ = metrics->GetCounter("pl.interpreter.restarts");
}

void IdlServerManager::CountRestart() {
  restarts_.fetch_add(1, std::memory_order_relaxed);
  restart_counter_->Add();
}

Status IdlServerManager::AddServer(std::unique_ptr<IdlServer> server) {
  if (server->state() == ServerState::kStopped) {
    HEDC_RETURN_IF_ERROR(server->Start());
  }
  std::lock_guard<std::mutex> lock(mu_);
  servers_.push_back(std::move(server));
  return Status::Ok();
}

Status IdlServerManager::RemoveServer() {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i]->state() != ServerState::kBusy) {
      servers_[i]->Stop();
      servers_.erase(servers_.begin() + static_cast<long>(i));
      return Status::Ok();
    }
  }
  return Status::FailedPrecondition("all interpreters are busy");
}

size_t IdlServerManager::num_servers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return servers_.size();
}

int IdlServerManager::idle_servers() const {
  std::lock_guard<std::mutex> lock(mu_);
  int idle = 0;
  for (const auto& server : servers_) {
    if (server->state() == ServerState::kIdle) ++idle;
  }
  return idle;
}

IdlServer* IdlServerManager::AcquireIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& server : servers_) {
    if (server->state() == ServerState::kCrashed) {
      // Opportunistic recovery: restart crashed interpreters on the way.
      if (!server->Restart().ok()) continue;
      CountRestart();
    }
    if (server->TryClaim()) return server.get();
  }
  return nullptr;
}

Result<analysis::AnalysisProduct> IdlServerManager::Invoke(
    const std::string& routine, const rhessi::PhotonList& photons,
    const analysis::AnalysisParams& params) {
  Status last_error = Status::Unavailable("no interpreters configured");
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    IdlServer* server = AcquireIdle();
    if (server == nullptr) {
      failures_->Add();
      return Status::ResourceExhausted(host_name_ +
                                       ": no idle IDL interpreter");
    }
    attempts_->Add();
    if (attempt > 0) retries_->Add();
    Result<analysis::AnalysisProduct> result =
        server->InvokeClaimed(routine, photons, params);
    if (result.ok()) return result;
    last_error = result.status();
    if (last_error.code() == StatusCode::kNotFound ||
        last_error.code() == StatusCode::kInvalidArgument) {
      failures_->Add();
      return last_error;  // not recoverable by retry
    }
    {
      // Under mu_, and only while the manager still holds it: once it
      // crashed, another Invoke may have restarted, run and released it,
      // and RemoveServer may have dropped it.
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& held : servers_) {
        if (held.get() == server &&
            server->state() == ServerState::kCrashed &&
            server->Restart().ok()) {
          CountRestart();
        }
      }
    }
    // kTimeout/kUnavailable: retry on a (restarted) interpreter.
  }
  failures_->Add();
  return last_error;
}

}  // namespace hedc::pl
