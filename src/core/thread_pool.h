// Fixed-size worker pool and a bounded MPMC queue.
//
// The database runs its morsel-parallel scans and join builds on a pool;
// a caller that finds the pool's queue full runs the work inline.
#ifndef HEDC_CORE_THREAD_POOL_H_
#define HEDC_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace hedc {

// Bounded blocking queue. Push blocks when full, Pop blocks when empty.
// Close() wakes all waiters; Pop returns nullopt once closed and drained.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; fails when full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  bool closed_ = false;
};

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task` without blocking: fails when the queue is full or
  // after Shutdown(). Lets latency-sensitive callers (parallel scans)
  // degrade to running the work inline rather than block behind a
  // saturated pool.
  bool TrySubmit(std::function<void()> task);

  // Stops accepting tasks, drains the queue, joins workers. Called by
  // the owner (and the destructor), not concurrently.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  BoundedQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
};

}  // namespace hedc

#endif  // HEDC_CORE_THREAD_POOL_H_
