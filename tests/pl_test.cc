// PL component tests: IDL servers, server manager fault tolerance,
// directory, predictor, 4-phase front end.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "core/metrics.h"
#include "pl/frontend.h"
#include "pl/idl_server.h"
#include "pl/server_manager.h"
#include "rhessi/telemetry.h"

namespace hedc::pl {
namespace {

rhessi::PhotonList SmallPhotons() {
  rhessi::TelemetryOptions options;
  options.duration_sec = 30;
  options.background_rate = 50;
  options.flares_per_hour = 0;
  options.grbs_per_hour = 0;
  options.saa_per_hour = 0;
  options.seed = 3;
  return rhessi::GenerateTelemetry(options).photons;
}

class PlTest : public ::testing::Test {
 protected:
  PlTest() : registry_(analysis::CreateStandardRegistry()) {}

  std::unique_ptr<IdlServer> MakeServer(const std::string& name,
                                        IdlServer::Options options = {}) {
    return std::make_unique<IdlServer>(name, registry_.get(), &clock_,
                                       options);
  }

  VirtualClock clock_;
  std::unique_ptr<analysis::RoutineRegistry> registry_;
};

TEST_F(PlTest, ServerLifecycle) {
  auto server = MakeServer("idl0");
  EXPECT_EQ(server->state(), ServerState::kStopped);
  ASSERT_TRUE(server->Start().ok());
  EXPECT_EQ(server->state(), ServerState::kIdle);
  EXPECT_FALSE(server->Start().ok());  // double start
  server->Stop();
  EXPECT_EQ(server->state(), ServerState::kStopped);
  ASSERT_TRUE(server->Restart().ok());
  EXPECT_EQ(server->state(), ServerState::kIdle);
}

TEST_F(PlTest, InvokeRunsRealRoutine) {
  auto server = MakeServer("idl0");
  ASSERT_TRUE(server->Start().ok());
  analysis::AnalysisParams params;
  params.SetInt("bins", 16);
  auto product = server->Invoke("histogram", SmallPhotons(), params);
  ASSERT_TRUE(product.ok()) << product.status().ToString();
  EXPECT_EQ(product.value().routine, "histogram");
  EXPECT_EQ(server->invocations(), 1);
  EXPECT_EQ(server->state(), ServerState::kIdle);
}

TEST_F(PlTest, InvokeOnStoppedServerFails) {
  auto server = MakeServer("idl0");
  auto r = server->Invoke("histogram", SmallPhotons(), {});
  EXPECT_TRUE(r.status().IsUnavailable());
}

TEST_F(PlTest, UnknownRoutineNotFound) {
  auto server = MakeServer("idl0");
  ASSERT_TRUE(server->Start().ok());
  EXPECT_TRUE(server->Invoke("warp_drive", SmallPhotons(), {})
                  .status()
                  .IsNotFound());
  EXPECT_EQ(server->state(), ServerState::kIdle);  // not crashed
}

TEST_F(PlTest, VirtualTimeCharging) {
  IdlServer::Options options;
  options.work_units_per_second = 1000;  // photons/s for histogram
  auto server = MakeServer("idl0", options);
  ASSERT_TRUE(server->Start().ok());
  rhessi::PhotonList photons = SmallPhotons();
  Micros t0 = clock_.Now();
  ASSERT_TRUE(server->Invoke("histogram", photons, {}).ok());
  Micros elapsed = clock_.Now() - t0;
  Micros expected = static_cast<Micros>(
      static_cast<double>(photons.size()) / 1000.0 * kMicrosPerSecond);
  EXPECT_NEAR(static_cast<double>(elapsed), static_cast<double>(expected),
              static_cast<double>(expected) * 0.01 + 1);
}

TEST_F(PlTest, CrashInjectionAndTimeout) {
  IdlServer::Options options;
  options.crash_probability = 1.0;
  auto server = MakeServer("crashy", options);
  ASSERT_TRUE(server->Start().ok());
  auto r = server->Invoke("histogram", SmallPhotons(), {});
  EXPECT_TRUE(r.status().IsUnavailable());
  EXPECT_EQ(server->state(), ServerState::kCrashed);
  EXPECT_EQ(server->crashes(), 1);

  IdlServer::Options timeout_options;
  timeout_options.timeout_work_units = 1;  // everything times out
  auto slow = MakeServer("slow", timeout_options);
  ASSERT_TRUE(slow->Start().ok());
  EXPECT_TRUE(slow->Invoke("histogram", SmallPhotons(), {})
                  .status()
                  .IsTimeout());
}

TEST_F(PlTest, ManagerRetriesAfterCrash) {
  IdlServerManager::Options options;
  options.max_retries = 4;  // per-attempt failure 50% -> ~3% per request
  IdlServerManager manager("host0", options);
  IdlServer::Options flaky;
  flaky.crash_probability = 0.5;
  flaky.fault_seed = 7;
  ASSERT_TRUE(manager.AddServer(MakeServer("idl0", flaky)).ok());
  ASSERT_TRUE(manager.AddServer(MakeServer("idl1", flaky)).ok());
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    if (manager.Invoke("histogram", SmallPhotons(), {}).ok()) ++successes;
  }
  // With restart+retry, the vast majority succeed despite 50% crash rate.
  EXPECT_GE(successes, 17);
  EXPECT_GT(manager.restarts(), 0);
}

TEST_F(PlTest, ManagerAddRemoveServers) {
  IdlServerManager manager("host0", {});
  ASSERT_TRUE(manager.AddServer(MakeServer("a")).ok());
  ASSERT_TRUE(manager.AddServer(MakeServer("b")).ok());
  EXPECT_EQ(manager.num_servers(), 2u);
  EXPECT_EQ(manager.idle_servers(), 2);
  ASSERT_TRUE(manager.RemoveServer().ok());
  EXPECT_EQ(manager.num_servers(), 1u);
}

// Concurrent crash-free invokes never collide on one interpreter: the
// manager claims the interpreter it picks, so no call loses a race and
// burns a retry while another interpreter is idle.
TEST_F(PlTest, ConcurrentInvokesClaimDistinctInterpreters) {
  // A routine that returns at once keeps the interpreters contended.
  class CountRoutine : public analysis::AnalysisRoutine {
   public:
    std::string name() const override { return "count"; }
    Result<analysis::AnalysisProduct> Run(
        const rhessi::PhotonList& photons,
        const analysis::AnalysisParams&) const override {
      analysis::AnalysisProduct product;
      product.metadata["photons"] = std::to_string(photons.size());
      return product;
    }
    double EstimateWorkUnits(size_t photon_count,
                             const analysis::AnalysisParams&) const override {
      return static_cast<double>(photon_count);
    }
  };
  registry_->Register(std::make_unique<CountRoutine>());
  MetricsRegistry* metrics = MetricsRegistry::Default();
  Counter* retries = metrics->GetCounter("pl.invoke.retries");
  IdlServerManager manager("host0", {});
  for (const char* name : {"idl0", "idl1", "idl2"}) {
    ASSERT_TRUE(manager.AddServer(MakeServer(name)).ok());
  }
  rhessi::PhotonList photons = SmallPhotons();
  int64_t retries0 = retries->Value();
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (!manager.Invoke("count", photons, {}).ok()) ++failures;
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(retries->Value() - retries0, 0);
  EXPECT_EQ(manager.idle_servers(), 3);
}

TEST_F(PlTest, ManagerKeepsBusyInterpreterOnRemove) {
  IdlServerManager manager("host0", {});
  auto server = MakeServer("a");
  IdlServer* a = server.get();
  ASSERT_TRUE(manager.AddServer(std::move(server)).ok());
  ASSERT_TRUE(a->TryClaim());
  EXPECT_FALSE(a->TryClaim());
  EXPECT_FALSE(manager.RemoveServer().ok());
  EXPECT_EQ(manager.num_servers(), 1u);
  ASSERT_TRUE(a->InvokeClaimed("histogram", SmallPhotons(), {}).ok());
  EXPECT_EQ(a->state(), ServerState::kIdle);
  EXPECT_TRUE(manager.RemoveServer().ok());
}

TEST_F(PlTest, DirectoryTracksOnlineServices) {
  GlobalDirectory directory;
  IdlServerManager m1("host0", {}), m2("host1", {});
  directory.Register("host0", &m1, "node0:9000");
  directory.Register("host1", &m2, "node1:9000");
  EXPECT_EQ(directory.OnlineManagers().size(), 2u);
  ASSERT_TRUE(directory.SetOnline("host0", false).ok());
  EXPECT_EQ(directory.OnlineManagers().size(), 1u);
  EXPECT_FALSE(directory.SetOnline("ghost", true).ok());
}

TEST_F(PlTest, PredictorConvergesToObservedRate) {
  DurationPredictor predictor(/*default=*/100.0, /*alpha=*/0.5);
  // True rate: 1000 units/s.
  for (int i = 0; i < 20; ++i) {
    predictor.Observe("imaging", 1000, 1.0);
  }
  EXPECT_NEAR(predictor.PredictSeconds("imaging", 2000), 2.0, 0.05);
  // Unknown routines use the default rate.
  EXPECT_NEAR(predictor.PredictSeconds("mystery", 100), 1.0, 1e-9);
}

class FrontendTest : public PlTest {
 protected:
  void SetUp() override {
    manager_ = std::make_unique<IdlServerManager>("host0",
                                                  IdlServerManager::Options{});
    ASSERT_TRUE(manager_->AddServer(MakeServer("idl0")).ok());
    ASSERT_TRUE(manager_->AddServer(MakeServer("idl1")).ok());
    directory_.Register("host0", manager_.get(), "local");
    predictor_ = std::make_unique<DurationPredictor>();
  }

  Frontend MakeFrontend(Frontend::Committer committer = nullptr) {
    return Frontend(&directory_, predictor_.get(), &clock_,
                    std::move(committer), Frontend::Options{});
  }

  GlobalDirectory directory_;
  std::unique_ptr<IdlServerManager> manager_;
  std::unique_ptr<DurationPredictor> predictor_;
};

TEST_F(FrontendTest, FourPhaseWorkflowCompletes) {
  std::atomic<int> commits{0};
  Frontend frontend = MakeFrontend(
      [&commits](const ProcessingRequest&,
                 const analysis::AnalysisProduct&) -> Result<int64_t> {
        return static_cast<int64_t>(++commits);
      });
  ProcessingRequest request;
  request.routine = "histogram";
  request.photons = SmallPhotons();
  request.params.SetInt("bins", 8);
  int64_t id = frontend.Submit(std::move(request)).value();
  RequestOutcome outcome = frontend.Wait(id);
  EXPECT_EQ(outcome.state, RequestState::kCommitted);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.committed_ana_id, 1);
  EXPECT_GT(outcome.predicted_seconds, 0);
  EXPECT_FALSE(outcome.product.rendered.empty());
}

TEST_F(FrontendTest, SkipCommitStopsAtDelivery) {
  Frontend frontend = MakeFrontend();
  ProcessingRequest request;
  request.routine = "lightcurve";
  request.photons = SmallPhotons();
  request.skip_commit = true;
  int64_t id = frontend.Submit(std::move(request)).value();
  RequestOutcome outcome = frontend.Wait(id);
  EXPECT_EQ(outcome.state, RequestState::kDelivered);
  EXPECT_TRUE(outcome.product.series.has_value());
}

TEST_F(FrontendTest, FailedRoutineReportsFailure) {
  Frontend frontend = MakeFrontend();
  ProcessingRequest request;
  request.routine = "no_such_routine";
  request.photons = SmallPhotons();
  int64_t id = frontend.Submit(std::move(request)).value();
  RequestOutcome outcome = frontend.Wait(id);
  EXPECT_EQ(outcome.state, RequestState::kFailed);
  EXPECT_TRUE(outcome.status.IsNotFound());
}

TEST_F(FrontendTest, ManyRequestsAllComplete) {
  Frontend frontend = MakeFrontend();
  std::vector<int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    ProcessingRequest request;
    request.routine = i % 2 == 0 ? "histogram" : "lightcurve";
    request.photons = SmallPhotons();
    request.skip_commit = true;
    request.priority = i % 3;
    ids.push_back(frontend.Submit(std::move(request)).value());
  }
  for (int64_t id : ids) {
    RequestOutcome outcome = frontend.Wait(id);
    EXPECT_EQ(outcome.state, RequestState::kDelivered)
        << outcome.status.ToString();
  }
  EXPECT_EQ(frontend.completed(), 12);
}

TEST_F(FrontendTest, CancelQueuedRequest) {
  // Saturate interpreters with slow virtual-time jobs is racy in real
  // time; instead cancel before any dispatcher can run by using a
  // front end whose directory is empty until after cancellation.
  GlobalDirectory empty_directory;
  Frontend frontend(&empty_directory, predictor_.get(), &clock_, nullptr,
                    Frontend::Options{});
  ProcessingRequest request;
  request.routine = "histogram";
  request.photons = SmallPhotons();
  int64_t id = frontend.Submit(std::move(request)).value();
  // With no managers online the request fails; cancel may race with that
  // failure — both are terminal and acceptable.
  frontend.Cancel(id);
  RequestOutcome outcome = frontend.Wait(id);
  EXPECT_TRUE(outcome.state == RequestState::kCancelled ||
              outcome.state == RequestState::kFailed);
}

TEST_F(FrontendTest, EstimateReturnsImmediately) {
  Frontend frontend = MakeFrontend();
  ProcessingRequest request;
  request.routine = "imaging";
  request.photons = SmallPhotons();
  request.params.SetInt("pixels", 64);
  auto estimate = frontend.Estimate(request);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate.value(), 0);
}

TEST_F(FrontendTest, UnknownRequestIdInWaitAndCancel) {
  Frontend frontend = MakeFrontend();
  EXPECT_TRUE(frontend.Cancel(999).IsNotFound());
  RequestOutcome outcome = frontend.Wait(999);
  EXPECT_EQ(outcome.state, RequestState::kFailed);
  EXPECT_FALSE(frontend.GetState(999).ok());
}

TEST_F(FrontendTest, FinishedRequestsReleaseTheirPhotons) {
  Gauge* retained = MetricsRegistry::Default()->GetGauge(
      "pl.frontend.retained_photons");
  int64_t before = retained->Value();
  Frontend frontend = MakeFrontend(
      [](const ProcessingRequest&,
         const analysis::AnalysisProduct&) -> Result<int64_t> { return 7; });
  std::vector<int64_t> ids;
  for (int i = 0; i < 9; ++i) {
    ProcessingRequest request;
    // Committed, delivered-only and failed requests all end terminal.
    request.routine = i % 3 == 2 ? "no_such_routine" : "histogram";
    request.skip_commit = i % 3 == 1;
    request.photons = SmallPhotons();
    request.input_units = {InputUnit{static_cast<int64_t>(i), 1}};
    ids.push_back(frontend.Submit(std::move(request)).value());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    RequestOutcome outcome = frontend.Wait(ids[i]);
    EXPECT_TRUE(outcome.terminal);
    EXPECT_EQ(outcome.state, i % 3 == 0   ? RequestState::kCommitted
                             : i % 3 == 1 ? RequestState::kDelivered
                                          : RequestState::kFailed);
  }
  EXPECT_EQ(retained->Value(), before);
  // The outcomes outlive the released inputs.
  RequestOutcome again = frontend.Wait(ids[0]);
  EXPECT_EQ(again.committed_ana_id, 7);
  EXPECT_FALSE(again.product.rendered.empty());
  EXPECT_EQ(frontend.GetState(ids[2]).value(), RequestState::kFailed);
}

// Fault-injection hammer: concurrent invocations from several threads
// against seeded crashy interpreters. Every call must return (success or
// error) and the retry/restart accounting must balance regardless of
// scheduling.
TEST_F(PlTest, StressFaultInjectionConcurrentInvokes) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  int64_t attempts0 = metrics->GetCounter("pl.invoke.attempts")->Value();
  int64_t retries0 = metrics->GetCounter("pl.invoke.retries")->Value();
  int64_t restarts0 =
      metrics->GetCounter("pl.interpreter.restarts")->Value();

  IdlServerManager::Options options;
  options.max_retries = 6;
  IdlServerManager manager("host0", options);
  uint64_t seed = 11;
  for (const char* name : {"idl0", "idl1", "idl2"}) {
    IdlServer::Options flaky;
    flaky.crash_probability = 0.3;
    flaky.fault_seed = seed++;
    ASSERT_TRUE(manager.AddServer(MakeServer(name, flaky)).ok());
  }

  // Callers <= interpreters guarantees AcquireIdle never comes up empty,
  // which keeps the attempts == requests + retries invariant exact.
  constexpr int kThreads = 3;
  constexpr int kRequests = 40;
  rhessi::PhotonList photons = SmallPhotons();
  std::atomic<int> next{0};
  std::vector<std::optional<Result<analysis::AnalysisProduct>>> results(
      kRequests);
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kRequests; i = next.fetch_add(1)) {
        results[static_cast<size_t>(i)] =
            manager.Invoke("histogram", photons, {});
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  int successes = 0;
  int failures = 0;
  for (const auto& slot : results) {
    ASSERT_TRUE(slot.has_value());
    const Result<analysis::AnalysisProduct>& result = *slot;
    if (result.ok()) {
      ++successes;
    } else {
      ++failures;
      // Crash faults surface as kUnavailable after retries are exhausted.
      EXPECT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
    }
  }
  // Every request completed one way or the other.
  EXPECT_EQ(successes + failures, kRequests);
  // With restart+retry at a 30% crash rate, most requests succeed.
  EXPECT_GE(successes, kRequests * 3 / 4);

  int64_t attempts = metrics->GetCounter("pl.invoke.attempts")->Value() -
                     attempts0;
  int64_t retries =
      metrics->GetCounter("pl.invoke.retries")->Value() - retries0;
  int64_t restarts =
      metrics->GetCounter("pl.interpreter.restarts")->Value() - restarts0;
  // Each request pays exactly 1 + its retries attempts (3 interpreters,
  // 3 callers: acquisition never fails outright).
  EXPECT_EQ(attempts, kRequests + retries);
  // The manager's own restart count and the process counter agree.
  EXPECT_EQ(restarts, manager.restarts());
  // The seeded fault plan forces crashes, hence restarts.
  EXPECT_GT(restarts, 0);
  // No interpreter is left permanently crashed: all recover to idle.
  EXPECT_EQ(manager.idle_servers(), 3);
}

}  // namespace
}  // namespace hedc::pl
