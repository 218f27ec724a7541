// Clang thread-safety annotations (-Wthread-safety) for the concurrency
// discipline of the thread pool and the numeric engine.
//
// Under Clang the macros expand to the static-analysis attributes, so a
// guarded member touched without its mutex, a lock released twice, or a
// REQUIRES contract broken is a compile-time diagnostic (an *error* when
// the build enables -Werror=thread-safety, see the top-level CMakeLists).
// Under other compilers everything expands to nothing and the wrappers
// below behave exactly like std::mutex / std::unique_lock.
//
// Clang's analysis does not know std::mutex, so guarded code uses the
// annotated pangulu::Mutex / pangulu::MutexLock capabilities instead, with
// std::condition_variable_any (which accepts any BasicLockable) for waits.
#pragma once

#include <mutex>

#if defined(__clang__)
#define PANGULU_TSA(x) __attribute__((x))
#else
#define PANGULU_TSA(x)
#endif

#define PANGULU_CAPABILITY(x) PANGULU_TSA(capability(x))
#define PANGULU_SCOPED_CAPABILITY PANGULU_TSA(scoped_lockable)
#define PANGULU_GUARDED_BY(x) PANGULU_TSA(guarded_by(x))
#define PANGULU_PT_GUARDED_BY(x) PANGULU_TSA(pt_guarded_by(x))
#define PANGULU_REQUIRES(...) PANGULU_TSA(requires_capability(__VA_ARGS__))
#define PANGULU_ACQUIRE(...) PANGULU_TSA(acquire_capability(__VA_ARGS__))
#define PANGULU_RELEASE(...) PANGULU_TSA(release_capability(__VA_ARGS__))
#define PANGULU_TRY_ACQUIRE(...) PANGULU_TSA(try_acquire_capability(__VA_ARGS__))
#define PANGULU_EXCLUDES(...) PANGULU_TSA(locks_excluded(__VA_ARGS__))
#define PANGULU_ASSERT_CAPABILITY(x) PANGULU_TSA(assert_capability(x))
#define PANGULU_RETURN_CAPABILITY(x) PANGULU_TSA(lock_returned(x))
#define PANGULU_NO_THREAD_SAFETY_ANALYSIS \
  PANGULU_TSA(no_thread_safety_analysis)

namespace pangulu {

/// std::mutex with the capability attribute the analysis needs.
class PANGULU_CAPABILITY("mutex") Mutex {
 public:
  void lock() PANGULU_ACQUIRE() { mu_.lock(); }
  void unlock() PANGULU_RELEASE() { mu_.unlock(); }
  bool try_lock() PANGULU_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tell the analysis the mutex is held here without acquiring it — for
  /// condition-variable predicates, which run with the lock held but whose
  /// lambda bodies the analysis checks in isolation.
  void assert_held() const PANGULU_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex. Also a BasicLockable (public lock/unlock), so
/// std::condition_variable_any can release and re-take it inside wait();
/// analysis-wise the capability is held across the wait, which matches the
/// guarded-data contract the caller relies on.
class PANGULU_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PANGULU_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PANGULU_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // BasicLockable for condition_variable_any (not annotated: the transient
  // unlock/relock inside wait() is invisible to the analysis by design).
  void lock() PANGULU_NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void unlock() PANGULU_NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace pangulu
