// Cooperative cancellation and deadlines (DESIGN.md §15). A CancelToken is
// shared between a caller and a running operation; the operation polls it at
// its safe points — every task dispatch of the numeric engine, every event
// pop of the factorisation DES, sweep levels in the SolvePlan/TrsvPlan
// solves — and fails typed (kCancelled / kDeadlineExceeded) without
// publishing partial results.
//
// Two clocks, one token. Simulated runs live on the DES virtual clock, so a
// deadline there is a virtual-seconds budget checked with check_virtual();
// the numeric engine, the solves and SessionPool admission live on
// std::chrono::steady_clock, checked with check(). A token may arm both; a
// wall check never consults the virtual deadline and vice versa.
//
// All state is atomic: the numeric engine's workers poll concurrently
// while the caller cancels from outside. Deadlines and the check-countdown
// are mutable so every poll entry point takes `const CancelToken*` — the
// token is logically read-only to the operation that polls it.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <string>

#include "util/status.hpp"

namespace pangulu {

class CancelToken {
 public:
  /// Revoke the request: the next poll at any safe point fails kCancelled.
  void cancel() { cancelled_.store(true, std::memory_order_release); }

  [[nodiscard]] bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arm a wall-clock deadline `seconds` from now (steady_clock). Checked by
  /// check(); used by the numeric engine, the solves and SessionPool
  /// admission.
  void set_wall_deadline_after(double seconds) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() +
        static_cast<long long>(seconds * 1e9);
    wall_deadline_ns_.store(ns, std::memory_order_release);
  }

  /// Arm a deadline on the DES virtual clock: a simulated run fails once its
  /// virtual time passes `seconds`. Checked only by check_virtual().
  void set_virtual_deadline(double seconds) {
    virtual_deadline_.store(seconds, std::memory_order_release);
  }

  /// Deterministic trigger for tests: the first `n` polls succeed, every
  /// later poll fails kCancelled. With n = 0 the very first poll fails.
  /// Counts polls through either check entry point.
  void cancel_after_checks(long long n) {
    checks_left_.store(n, std::memory_order_release);
  }

  /// Remaining wall budget in seconds: +inf when no wall deadline is armed,
  /// clamped at 0 once expired. SessionPool admission sheds on this.
  [[nodiscard]] double wall_seconds_remaining() const {
    const long long dl = wall_deadline_ns_.load(std::memory_order_acquire);
    if (dl < 0) return std::numeric_limits<double>::infinity();
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const auto now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    return dl <= now_ns ? 0.0 : static_cast<double>(dl - now_ns) * 1e-9;
  }

  [[nodiscard]] bool has_wall_deadline() const {
    return wall_deadline_ns_.load(std::memory_order_acquire) >= 0;
  }

  /// Poll at a wall-clock safe point. `where` names the safe point for the
  /// diagnostic ("numeric engine dispatch of canonical task 7", "solve sweep
  /// level 12", ...).
  Status check(const char* where) const {
    if (consume_budget() || cancel_requested())
      return Status::cancelled(std::string("request cancelled at ") + where);
    if (wall_deadline_ns_.load(std::memory_order_acquire) >= 0 &&
        wall_seconds_remaining() <= 0.0)
      return Status::deadline_exceeded(
          std::string("wall deadline exceeded at ") + where);
    return Status::ok();
  }

  /// Poll at a DES safe point with the current virtual time. Applies the
  /// manual/wall checks first, then the virtual deadline: virtual time
  /// strictly past the budget fails, so a run finishing exactly at the
  /// deadline still succeeds.
  Status check_virtual(double now_virtual_seconds, const char* where) const {
    Status s = check(where);
    if (!s.is_ok()) return s;
    const double dl = virtual_deadline_.load(std::memory_order_acquire);
    if (now_virtual_seconds > dl)
      return Status::deadline_exceeded(
          std::string("virtual deadline exceeded at ") + where +
          " (t = " + std::to_string(now_virtual_seconds) + " s, deadline " +
          std::to_string(dl) + " s)");
    return Status::ok();
  }

 private:
  // Countdown shared by both check entry points; returns true when the
  // budget is spent. Disarmed at -1; the counter saturates there so an
  // armed token keeps failing after the trigger instead of wrapping.
  bool consume_budget() const {
    long long left = checks_left_.load(std::memory_order_acquire);
    while (left >= 0) {
      if (left == 0) return true;
      if (checks_left_.compare_exchange_weak(left, left - 1,
                                             std::memory_order_acq_rel))
        return false;
    }
    return false;
  }

  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<long long> wall_deadline_ns_{-1};
  mutable std::atomic<long long> checks_left_{-1};
  mutable std::atomic<double> virtual_deadline_{
      std::numeric_limits<double>::infinity()};
};

}  // namespace pangulu
