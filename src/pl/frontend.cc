#include "pl/frontend.h"

#include <algorithm>
#include <chrono>

#include "analysis/routine.h"
#include "core/strings.h"

namespace hedc::pl {

void GlobalDirectory::Register(const std::string& name,
                               IdlServerManager* manager,
                               const std::string& location) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.manager = manager;
      entry.location = location;
      entry.online = true;
      return;
    }
  }
  entries_.push_back(Entry{name, manager, location, true});
}

Status GlobalDirectory::SetOnline(const std::string& name, bool online) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.online = online;
      return Status::Ok();
    }
  }
  return Status::NotFound("service " + name);
}

std::vector<IdlServerManager*> GlobalDirectory::OnlineManagers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<IdlServerManager*> out;
  for (const Entry& entry : entries_) {
    if (entry.online && entry.manager != nullptr) {
      out.push_back(entry.manager);
    }
  }
  return out;
}

std::vector<GlobalDirectory::Entry> GlobalDirectory::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

double DurationPredictor::PredictSeconds(const std::string& routine,
                                         double work_units) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rates_.find(routine);
  double rate = it == rates_.end() ? default_rate_ : it->second;
  return rate > 0 ? work_units / rate : 0;
}

void DurationPredictor::Observe(const std::string& routine,
                                double work_units, double seconds) {
  if (seconds <= 0 || work_units <= 0) return;
  double observed_rate = work_units / seconds;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = rates_.try_emplace(routine, observed_rate);
  if (!inserted) {
    it->second = alpha_ * observed_rate + (1 - alpha_) * it->second;
  }
}

const char* RequestStateName(RequestState state) {
  switch (state) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kEstimated:
      return "estimated";
    case RequestState::kExecuting:
      return "executing";
    case RequestState::kDelivered:
      return "delivered";
    case RequestState::kCommitted:
      return "committed";
    case RequestState::kFailed:
      return "failed";
    case RequestState::kCancelled:
      return "cancelled";
  }
  return "?";
}

Frontend::Frontend(GlobalDirectory* directory, DurationPredictor* predictor,
                   Clock* clock, Committer committer, Options options)
    : directory_(directory),
      predictor_(predictor),
      clock_(clock),
      committer_(std::move(committer)),
      options_(options) {
  MetricsRegistry* metrics = MetricsRegistry::Default();
  estimate_us_ = metrics->GetHistogram("pl.estimate_us");
  execute_us_ = metrics->GetHistogram("pl.execute_us");
  deliver_us_ = metrics->GetHistogram("pl.deliver_us");
  commit_us_ = metrics->GetHistogram("pl.commit_us");
  submitted_ = metrics->GetCounter("pl.requests.submitted");
  completed_counter_ = metrics->GetCounter("pl.requests.completed");
  failed_ = metrics->GetCounter("pl.requests.failed");
  cancelled_ = metrics->GetCounter("pl.requests.cancelled");
  queue_depth_ = metrics->GetGauge("pl.queue_depth");
  retained_photons_ = metrics->GetGauge("pl.frontend.retained_photons");
  size_t n = std::max<size_t>(options_.dispatcher_threads, 1);
  dispatchers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
}

Frontend::~Frontend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

Result<double> Frontend::Estimate(const ProcessingRequest& request) {
  // The estimation phase consults the registry-backed work model through
  // the predictor; it must not touch an interpreter.
  auto registry = analysis::CreateStandardRegistry();
  const analysis::AnalysisRoutine* routine =
      registry->Get(request.routine);
  double work = routine != nullptr
                    ? routine->EstimateWorkUnits(request.photons.size(),
                                                 request.params)
                    : static_cast<double>(request.photons.size());
  return predictor_->PredictSeconds(request.routine, work);
}

Result<int64_t> Frontend::Submit(ProcessingRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return Status::Unavailable("front end shut down");
  if (queue_.size() >= options_.max_queue) {
    return Status::ResourceExhausted("request queue full");
  }
  int64_t id = next_request_id_++;
  request.request_id = id;
  if (request.trace_id == 0) request.trace_id = id;
  submitted_->Add();
  auto slot = std::make_unique<Slot>();
  slot->request = std::move(request);
  retained_photons_->Add(static_cast<int64_t>(slot->request.photons.size()));
  slot->outcome.state = RequestState::kQueued;
  slot->outcome.submitted_at = clock_->Now();
  if (product_cache_ != nullptr) {
    slot->cache_key = MakeProductCacheKey(
        slot->request.routine, slot->request.params,
        slot->request.input_units);
  }
  if (!slot->request.skip_estimation) {
    lock.unlock();
    // A cached (or in-flight) product makes the predicted duration ~zero:
    // the execution phase will be a cache read, not an IDL run.
    bool cached = product_cache_ != nullptr &&
                  product_cache_->Peek(slot->cache_key);
    Result<double> predicted = [&]() -> Result<double> {
      ScopedTimer timer(estimate_us_);
      TraceSpan span(slot->request.trace_id, "pl", "estimate");
      if (cached) return 0.0;
      return Estimate(slot->request);
    }();
    lock.lock();
    if (predicted.ok()) {
      slot->outcome.predicted_seconds = predicted.value();
      slot->outcome.state = RequestState::kEstimated;
    }
  }
  slots_[id] = std::move(slot);
  queue_.push_back(id);
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  queue_cv_.notify_one();
  return id;
}

int64_t Frontend::PopNext() {
  // Priority scheduling: highest priority first, FIFO within a class.
  int best_priority = INT32_MIN;
  size_t best_index = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    auto it = slots_.find(queue_[i]);
    if (it == slots_.end()) continue;
    int p = it->second->request.priority;
    if (p > best_priority) {
      best_priority = p;
      best_index = i;
    }
  }
  if (best_index >= queue_.size()) return -1;
  int64_t id = queue_[best_index];
  queue_.erase(queue_.begin() + static_cast<long>(best_index));
  return id;
}

void Frontend::Finish(Slot* slot, RequestState state, Status status) {
  slot->outcome.state = state;
  slot->outcome.terminal = true;
  slot->outcome.status = std::move(status);
  slot->outcome.finished_at = clock_->Now();
  // A terminal request is only ever read for its outcome: release the
  // inputs, which for a raw unit run to megabytes of photons.
  retained_photons_->Add(-static_cast<int64_t>(slot->request.photons.size()));
  slot->request.photons = rhessi::PhotonList();
  slot->request.input_units = std::vector<InputUnit>();
  ++completed_;
  switch (state) {
    case RequestState::kFailed:
      failed_->Add();
      break;
    case RequestState::kCancelled:
      cancelled_->Add();
      break;
    default:
      completed_counter_->Add();
      break;
  }
  done_cv_.notify_all();
}

void Frontend::DispatcherLoop() {
  while (true) {
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      int64_t id = PopNext();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      if (id < 0) continue;
      slot = slots_[id].get();
      if (slot->cancel_requested) {
        Finish(slot, RequestState::kCancelled,
               Status::FailedPrecondition("cancelled while queued"));
        continue;
      }
      slot->outcome.state = RequestState::kExecuting;
      slot->outcome.started_at = clock_->Now();
    }

    // --- cache admission (outside the lock) ---------------------------
    // Exactly one concurrent request per key proceeds to an IDL server;
    // identical requests either hit a finished entry or follow the
    // in-flight leader.
    ProductCache::Ticket ticket;
    if (product_cache_ != nullptr) {
      TraceSpan span(slot->request.trace_id, "pl", "cache.admit");
      ticket = product_cache_->Admit(slot->cache_key);
    }
    if (ticket.role == ProductCache::Role::kHit) {
      ServeCached(slot, std::move(ticket.hit));
      continue;
    }
    if (ticket.role == ProductCache::Role::kFollower) {
      Result<ProductCache::CachedProduct> shared =
          [&]() -> Result<ProductCache::CachedProduct> {
        ScopedTimer timer(execute_us_);
        TraceSpan span(slot->request.trace_id, "pl", "cache.await");
        return product_cache_->Await(ticket);
      }();
      if (!shared.ok()) {
        // The leader's execution failed; every coalesced waiter fails
        // with the leader's status.
        std::lock_guard<std::mutex> lock(mu_);
        Finish(slot, RequestState::kFailed, shared.status());
        continue;
      }
      ServeCached(slot, std::move(shared).value());
      continue;
    }
    bool leader = ticket.role == ProductCache::Role::kLeader;

    // --- execution phase (outside the lock) ---------------------------
    std::vector<IdlServerManager*> managers = directory_->OnlineManagers();
    if (managers.empty()) {
      if (leader) {
        product_cache_->CompleteFailure(
            ticket, Status::Unavailable("no processing services online"));
      }
      std::lock_guard<std::mutex> lock(mu_);
      Finish(slot, RequestState::kFailed,
             Status::Unavailable("no processing services online"));
      continue;
    }
    size_t pick =
        dispatch_counter_.fetch_add(1, std::memory_order_relaxed) %
        managers.size();
    // Prefer a manager with an idle interpreter (least-loaded fallback to
    // round-robin).
    IdlServerManager* manager = managers[pick];
    for (size_t i = 0; i < managers.size(); ++i) {
      if (managers[(pick + i) % managers.size()]->idle_servers() > 0) {
        manager = managers[(pick + i) % managers.size()];
        break;
      }
    }

    Micros exec_start = clock_->Now();
    auto wall_start = std::chrono::steady_clock::now();
    Result<analysis::AnalysisProduct> product =
        [&]() -> Result<analysis::AnalysisProduct> {
      ScopedTimer timer(execute_us_);
      TraceSpan span(slot->request.trace_id, "pl", "execute");
      return manager->Invoke(slot->request.routine, slot->request.photons,
                             slot->request.params);
    }();
    Micros exec_end = clock_->Now();
    // GDSF cost of this product: whichever of virtual and wall time
    // actually advanced during the execution (testbeds charge the virtual
    // clock, live interpreters burn wall time).
    double cost_seconds = std::max(
        static_cast<double>(exec_end - exec_start) / kMicrosPerSecond,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count());

    if (!product.ok()) {
      // Failure publishes to every coalesced waiter and caches nothing:
      // a crashed execution must not poison the cache.
      if (leader) product_cache_->CompleteFailure(ticket, product.status());
      std::lock_guard<std::mutex> lock(mu_);
      Finish(slot, RequestState::kFailed, product.status());
      continue;
    }
    // Feed the predictor with the observed rate.
    {
      auto registry = analysis::CreateStandardRegistry();
      const analysis::AnalysisRoutine* routine =
          registry->Get(slot->request.routine);
      if (routine != nullptr && exec_end > exec_start) {
        predictor_->Observe(
            slot->request.routine,
            routine->EstimateWorkUnits(slot->request.photons.size(),
                                       slot->request.params),
            static_cast<double>(exec_end - exec_start) / kMicrosPerSecond);
      }
    }

    // --- delivery phase ------------------------------------------------
    bool cancelled = false;
    {
      ScopedTimer timer(deliver_us_);
      TraceSpan span(slot->request.trace_id, "pl", "deliver");
      std::lock_guard<std::mutex> lock(mu_);
      if (slot->cancel_requested) {
        // Cancellation cleanup: discard the product before commit.
        Finish(slot, RequestState::kCancelled,
               Status::FailedPrecondition("cancelled before commit"));
        cancelled = true;
      } else {
        slot->outcome.product = std::move(product).value();
        slot->outcome.state = RequestState::kDelivered;
      }
    }
    if (cancelled) {
      // The execution itself succeeded; admit the product (never
      // committed -> ana 0) so waiters and future hits still benefit.
      if (leader) {
        product_cache_->CompleteSuccess(ticket, product.value(),
                                        cost_seconds, 0);
      }
      continue;
    }

    // --- commit phase ----------------------------------------------------
    if (slot->request.skip_commit || !committer_) {
      if (leader) {
        product_cache_->CompleteSuccess(ticket, slot->outcome.product,
                                        cost_seconds, 0);
      }
      std::lock_guard<std::mutex> lock(mu_);
      Finish(slot, RequestState::kDelivered, Status::Ok());
      continue;
    }
    Result<int64_t> ana_id = [&]() -> Result<int64_t> {
      ScopedTimer timer(commit_us_);
      TraceSpan span(slot->request.trace_id, "pl", "commit");
      return committer_(slot->request, slot->outcome.product);
    }();
    if (leader) {
      // Cache entries share the committed ana id, so a coalesced
      // follower can reuse the row instead of committing a duplicate. A
      // failed commit fails the flight: waiters retry with a fresh
      // leader rather than inherit an uncommitted product.
      if (ana_id.ok()) {
        product_cache_->CompleteSuccess(ticket, slot->outcome.product,
                                        cost_seconds, ana_id.value());
      } else {
        product_cache_->CompleteFailure(ticket, ana_id.status());
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!ana_id.ok()) {
      Finish(slot, RequestState::kFailed, ana_id.status());
    } else {
      slot->outcome.committed_ana_id = ana_id.value();
      Finish(slot, RequestState::kCommitted, Status::Ok());
    }
  }
}

void Frontend::ServeCached(Slot* slot, ProductCache::CachedProduct cached) {
  Result<analysis::AnalysisProduct> decoded =
      [&]() -> Result<analysis::AnalysisProduct> {
    ScopedTimer timer(deliver_us_);
    TraceSpan span(slot->request.trace_id, "pl", "cache.deliver");
    return DecodeProduct(cached.bytes);
  }();
  if (!decoded.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    Finish(slot, RequestState::kFailed, decoded.status());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot->cancel_requested) {
      Finish(slot, RequestState::kCancelled,
             Status::FailedPrecondition("cancelled before commit"));
      return;
    }
    slot->outcome.product = std::move(decoded).value();
    slot->outcome.state = RequestState::kDelivered;
  }
  if (cached.ana_id > 0) {
    // The product is already committed (by the leader or an earlier
    // request): share the ana id, no duplicate write-back.
    std::lock_guard<std::mutex> lock(mu_);
    slot->outcome.committed_ana_id = cached.ana_id;
    Finish(slot,
           slot->request.skip_commit ? RequestState::kDelivered
                                     : RequestState::kCommitted,
           Status::Ok());
    return;
  }
  if (slot->request.skip_commit || !committer_) {
    std::lock_guard<std::mutex> lock(mu_);
    Finish(slot, RequestState::kDelivered, Status::Ok());
    return;
  }
  Result<int64_t> ana_id = [&]() -> Result<int64_t> {
    ScopedTimer timer(commit_us_);
    TraceSpan span(slot->request.trace_id, "pl", "commit");
    return committer_(slot->request, slot->outcome.product);
  }();
  std::lock_guard<std::mutex> lock(mu_);
  if (!ana_id.ok()) {
    Finish(slot, RequestState::kFailed, ana_id.status());
  } else {
    slot->outcome.committed_ana_id = ana_id.value();
    Finish(slot, RequestState::kCommitted, Status::Ok());
  }
}

RequestOutcome Frontend::Wait(int64_t request_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(request_id);
  if (it == slots_.end()) {
    RequestOutcome outcome;
    outcome.state = RequestState::kFailed;
    outcome.status = Status::NotFound(
        StrFormat("request %lld", static_cast<long long>(request_id)));
    return outcome;
  }
  Slot* slot = it->second.get();
  done_cv_.wait(lock, [slot] { return slot->outcome.terminal; });
  return slot->outcome;
}

Status Frontend::Cancel(int64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(request_id);
  if (it == slots_.end()) {
    return Status::NotFound(
        StrFormat("request %lld", static_cast<long long>(request_id)));
  }
  it->second->cancel_requested = true;
  return Status::Ok();
}

Result<RequestState> Frontend::GetState(int64_t request_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(request_id);
  if (it == slots_.end()) {
    return Status::NotFound(
        StrFormat("request %lld", static_cast<long long>(request_id)));
  }
  return it->second->outcome.state;
}

}  // namespace hedc::pl
