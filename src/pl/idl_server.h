// Simulated IDL interpreter server.
//
// Stand-in for the "IDL servers (version 5.4)" (§2.3): an external,
// failure-prone interpreter process executing SSW-style routines. The PL
// manages it from outside: start, stop, restart, synchronous invocation
// with timeout, crash injection ("implements error handling (timeout,
// resource drain)", §5.1). Computation is real — the registered routine
// runs — while an optional speed factor models slower 2003 hosts by
// charging extra virtual time to a Clock.
#ifndef HEDC_PL_IDL_SERVER_H_
#define HEDC_PL_IDL_SERVER_H_

#include <atomic>
#include <memory>
#include <string>

#include "analysis/routine.h"
#include "core/clock.h"
#include "core/rng.h"
#include "core/status.h"
#include "rhessi/photon.h"

namespace hedc::pl {

enum class ServerState { kStopped, kIdle, kBusy, kCrashed };

const char* ServerStateName(ServerState state);

class IdlServer {
 public:
  struct Options {
    // Virtual work-unit throughput (units/second) charged to `clock`.
    // <= 0 disables virtual-time charging (real compute time only).
    double work_units_per_second = 0;
    // Probability that an invocation crashes the interpreter.
    double crash_probability = 0;
    // Invocations taking more virtual work than this fail with kTimeout
    // (<=0 disables). Expressed in work units.
    double timeout_work_units = 0;
    uint64_t fault_seed = 42;
  };

  IdlServer(std::string name, const analysis::RoutineRegistry* registry,
            Clock* clock, Options options);

  const std::string& name() const { return name_; }
  ServerState state() const { return state_; }

  Status Start();
  void Stop();
  // Restart clears a crashed state ("Multiple native IDL interpreters are
  // managed (start, stop, restart)").
  Status Restart();

  // Claims an idle interpreter for one call (idle -> busy); false if it
  // is not idle. The claimer then calls InvokeClaimed exactly once.
  bool TryClaim();
  // Synchronous invocation on an interpreter this caller claimed. Fails
  // kUnavailable if the interpreter crashed mid-call; kTimeout on
  // exceeding the work budget; kNotFound for unknown routines. The
  // interpreter ends idle again, or crashed.
  Result<analysis::AnalysisProduct> InvokeClaimed(
      const std::string& routine, const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params);

  int64_t invocations() const { return invocations_; }
  int64_t crashes() const { return crashes_; }

 private:
  std::string name_;
  const analysis::RoutineRegistry* registry_;
  Clock* clock_;
  Options options_;
  std::atomic<ServerState> state_{ServerState::kStopped};
  Rng fault_rng_;
  int64_t invocations_ = 0;
  int64_t crashes_ = 0;
};

}  // namespace hedc::pl

#endif  // HEDC_PL_IDL_SERVER_H_
