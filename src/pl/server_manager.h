// IDL server manager (§5.1): owns the interpreters of one processing
// host, provides invocation and the fault handling around it — crashed
// interpreters are restarted and the call retried; repeated failure
// surfaces to the caller. Invoke is synchronous and safe to call from
// concurrent threads; asynchronous execution is Frontend::Submit/Wait,
// whose dispatcher threads call Invoke. "IDL server managers can be
// dynamically added and removed as needed without halting the system."
#ifndef HEDC_PL_SERVER_MANAGER_H_
#define HEDC_PL_SERVER_MANAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "pl/idl_server.h"

namespace hedc::pl {

class IdlServerManager {
 public:
  struct Options {
    int max_retries = 2;  // restart-and-retry attempts after a crash
  };

  IdlServerManager(std::string host_name, Options options);

  const std::string& host_name() const { return host_name_; }

  // Adds a started interpreter to the pool.
  Status AddServer(std::unique_ptr<IdlServer> server);
  // Removes (stops) one idle interpreter; fails if none can be removed.
  Status RemoveServer();
  size_t num_servers() const;
  int idle_servers() const;

  // Synchronous invocation with fault tolerance: picks an idle server,
  // restarts + retries on crash, propagates timeouts.
  Result<analysis::AnalysisProduct> Invoke(
      const std::string& routine, const rhessi::PhotonList& photons,
      const analysis::AnalysisParams& params);

  int64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }

 private:
  // Claims an idle interpreter (restarting a crashed one on the way)
  // under mu_, so no two concurrent Invokes can pick the same one.
  IdlServer* AcquireIdle();
  void CountRestart();

  std::string host_name_;
  Options options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<IdlServer>> servers_;
  // Atomic: Invoke restarts crashed interpreters outside mu_.
  std::atomic<int64_t> restarts_{0};

  // pl.invoke.* / pl.interpreter.* metrics.
  Counter* attempts_;
  Counter* retries_;
  Counter* failures_;
  Counter* restart_counter_;
};

}  // namespace hedc::pl

#endif  // HEDC_PL_SERVER_MANAGER_H_
