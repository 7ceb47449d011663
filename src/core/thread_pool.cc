#include "core/thread_pool.h"

namespace hedc {

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : queue_(queue_capacity) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::TrySubmit(std::function<void()> task) {
  return queue_.TryPush(std::move(task));
}

void ThreadPool::Shutdown() {
  queue_.Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (std::optional<std::function<void()>> task = queue_.Pop()) {
    (*task)();
  }
}

}  // namespace hedc
