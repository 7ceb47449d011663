#include "pl/idl_server.h"

namespace hedc::pl {

const char* ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kStopped:
      return "stopped";
    case ServerState::kIdle:
      return "idle";
    case ServerState::kBusy:
      return "busy";
    case ServerState::kCrashed:
      return "crashed";
  }
  return "?";
}

IdlServer::IdlServer(std::string name,
                     const analysis::RoutineRegistry* registry, Clock* clock,
                     Options options)
    : name_(std::move(name)),
      registry_(registry),
      clock_(clock),
      options_(options),
      fault_rng_(options.fault_seed) {}

Status IdlServer::Start() {
  ServerState expected = ServerState::kStopped;
  if (!state_.compare_exchange_strong(expected, ServerState::kIdle)) {
    return Status::FailedPrecondition(
        std::string("cannot start server in state ") +
        ServerStateName(expected));
  }
  return Status::Ok();
}

void IdlServer::Stop() { state_.store(ServerState::kStopped); }

Status IdlServer::Restart() {
  state_.store(ServerState::kStopped);
  return Start();
}

bool IdlServer::TryClaim() {
  ServerState expected = ServerState::kIdle;
  return state_.compare_exchange_strong(expected, ServerState::kBusy);
}

Result<analysis::AnalysisProduct> IdlServer::InvokeClaimed(
    const std::string& routine, const rhessi::PhotonList& photons,
    const analysis::AnalysisParams& params) {
  ++invocations_;

  const analysis::AnalysisRoutine* impl = registry_->Get(routine);
  if (impl == nullptr) {
    state_.store(ServerState::kIdle);
    return Status::NotFound("routine " + routine);
  }

  double work = impl->EstimateWorkUnits(photons.size(), params);
  if (options_.timeout_work_units > 0 &&
      work > options_.timeout_work_units) {
    // The interpreter would exceed its budget; the manager's timeout
    // watchdog kills and restarts it.
    state_.store(ServerState::kCrashed);
    ++crashes_;
    return Status::Timeout(name_ + " exceeded work budget");
  }
  if (options_.crash_probability > 0 &&
      fault_rng_.Bernoulli(options_.crash_probability)) {
    state_.store(ServerState::kCrashed);
    ++crashes_;
    return Status::Unavailable(name_ + " interpreter crashed");
  }

  // Charge virtual execution time (models the 2003 host's speed).
  if (options_.work_units_per_second > 0 && clock_ != nullptr) {
    clock_->SleepFor(static_cast<Micros>(
        work / options_.work_units_per_second * kMicrosPerSecond));
  }

  Result<analysis::AnalysisProduct> product = impl->Run(photons, params);
  state_.store(ServerState::kIdle);
  return product;
}

}  // namespace hedc::pl
