// Fixed-size worker pool. The "G_" kernel variants in src/kernels are
// structured like their GPU counterparts (chunks of work ~ warps); on this
// host they execute on this pool. Its size is also the numeric engine's
// default worker count (runtime/sim.hpp).
//
// Concurrency discipline is compiler-enforced where the toolchain allows:
// every shared member is PANGULU_GUARDED_BY(mu_) and the build turns
// -Wthread-safety into an error under Clang (see parallel/annotations.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "parallel/annotations.hpp"

namespace pangulu {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task) PANGULU_EXCLUDES(mu_);

  /// Block until every submitted task has finished executing.
  void wait_idle() PANGULU_EXCLUDES(mu_);

  /// Process-wide default pool, sized to the hardware.
  static ThreadPool& global();

 private:
  void worker_loop() PANGULU_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::condition_variable_any cv_task_;
  std::condition_variable_any cv_idle_;
  std::queue<std::function<void()>> tasks_ PANGULU_GUARDED_BY(mu_);
  std::size_t in_flight_ PANGULU_GUARDED_BY(mu_) = 0;
  bool stop_ PANGULU_GUARDED_BY(mu_) = false;
};

}  // namespace pangulu
