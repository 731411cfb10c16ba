#ifndef MOVD_UTIL_CANCEL_H_
#define MOVD_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>

namespace movd {

/// Cooperative cancellation token for long-running pipeline stages.
///
/// A token fires either explicitly (Cancel()) or implicitly once its
/// deadline passes. Pipeline loops poll Expired() at coarse checkpoints —
/// once per SSC combination, per overlap finder chunk and every 256 pairs
/// inside one, per Optimizer OVR — and unwind without producing an answer
/// (never a partial one; see DESIGN.md section 8 for the serving deadline
/// semantics built on top).
///
/// Expired() latches: once it has returned true it keeps returning true,
/// even if observed through a stale clock, so every stage of a pipeline
/// agrees on whether the run was cancelled. The latch is the only mutable
/// state and is atomic, making Expired() safe to call concurrently from
/// every worker of a ParallelFor fan-out.
///
/// Thread-safety (DESIGN.md §12): deliberately lock-free, so the token
/// carries no MOVD_GUARDED_BY capability. `cancelled_` is a monotonic
/// false->true latch under relaxed ordering — a stale read can only delay
/// the checkpoint by one poll, never un-cancel a run — and `deadline_` is
/// immutable after construction.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token that never fires on its own (Cancel() still works).
  CancelToken() = default;

  /// A token that fires once `deadline` passes.
  explicit CancelToken(Clock::time_point deadline) : deadline_(deadline) {}

  /// A token that fires `budget` from now.
  static CancelToken After(std::chrono::nanoseconds budget) {
    return CancelToken(Clock::now() + budget);
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token explicitly.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Checkpoint: true once the token was cancelled or its deadline passed.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (deadline_ != Clock::time_point::max() &&
        Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The deadline, or Clock::time_point::max() when none was set.
  Clock::time_point deadline() const { return deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// Nullable-pointer convenience for options structs: a null token never
/// expires.
inline bool TokenExpired(const CancelToken* token) {
  return token != nullptr && token->Expired();
}

}  // namespace movd

#endif  // MOVD_UTIL_CANCEL_H_
