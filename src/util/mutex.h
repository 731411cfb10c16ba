#ifndef MOVD_UTIL_MUTEX_H_
#define MOVD_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace movd {

/// An annotated std::mutex (DESIGN.md §12). The standard library's mutex
/// carries no capability attribute under libstdc++, so Clang's
/// thread-safety analysis cannot check code that uses it directly; this
/// wrapper is the repo's lockable capability. All mutex-protected state
/// declares MOVD_GUARDED_BY(mu_) against an instance of this class, and
/// the Clang CI job proves the lock discipline at compile time.
///
/// Prefer MutexLock for scoped sections. Manual Lock()/Unlock() is for
/// the few places a lock must be dropped mid-function (single-flight
/// builds); the analysis checks those paths too.
class MOVD_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MOVD_ACQUIRE() { mu_.lock(); }
  void Unlock() MOVD_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for a Mutex, scoped-capability-annotated so the analysis
/// knows the capability is held for the guard's lifetime.
class MOVD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MOVD_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MOVD_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A condition variable waiting on movd::Mutex. Wait/WaitUntil require
/// the mutex held (annotated), so the classic
///
///   while (!condition) cv.Wait(mu_);
///
/// loop is fully checked: the condition reads guarded state under the
/// lock, and the analysis knows Wait re-holds the lock on return.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and re-acquires `mu` before
  /// returning. Spurious wakeups happen; always wait in a loop.
  void Wait(Mutex& mu) MOVD_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock without unlocking so ownership returns to the caller.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Like Wait, but gives up at `deadline`. Returns false when the wait
  /// timed out (the mutex is re-held either way).
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      MOVD_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace movd

#endif  // MOVD_UTIL_MUTEX_H_
