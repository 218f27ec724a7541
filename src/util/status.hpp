// Lightweight status/error reporting without exceptions on hot paths.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace pangulu {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNumericalError,
  kIoError,
  kInternal,
  /// A required resource is (possibly transiently) gone — e.g. every replica
  /// of a block was lost to rank crashes and recovery is impossible.
  kUnavailable,
  /// The static task-graph verifier (src/analysis) proved a scheduling
  /// invariant broken — counter conservation, schedulability, mapping
  /// totality, or message conservation. The message names the first
  /// violated invariant and the offending block/task.
  kInvariantViolation,
  /// Stored numeric data failed an integrity audit: an ABFT block checksum
  /// no longer matches (silent bit-flip) and the block could not be
  /// recomputed from live inputs, or a snapshot section failed its CRC.
  /// The message names the block/section that went bad.
  kDataCorruption,
  /// A planned capacity change would leave the cluster unable to make
  /// progress — e.g. an ElasticPlan drain would drop the live rank count
  /// below Options/ElasticPlan::min_ranks. The runtime sheds the load with
  /// this code instead of deadlocking; the caller may retry with more
  /// capacity. Distinct from kUnavailable (unplanned loss).
  kResourceExhausted,
  /// Mixed-precision iterative refinement stalled: the FP32 correction
  /// solves stopped reducing the FP64 residual before the requested
  /// tolerance was reached (the matrix is too ill-conditioned for an FP32
  /// factorisation to precondition). Distinct from kNumericalError (a
  /// kernel-level breakdown such as a zero pivot): the factorisation itself
  /// completed, but refinement cannot converge on it. The caller should
  /// retry at Precision::kDouble.
  kNumericBreakdown,
  /// A request's deadline expired before the work finished — either the
  /// wall-clock deadline of a CancelToken (numeric engine, plan-based
  /// solves, SessionPool admission) or its virtual deadline on the DES
  /// clock (simulated runs).
  /// The operation stopped at the next safe point without publishing a
  /// partial factor; sessions remain usable. Retrying with a larger budget
  /// is safe. Distinct from kCancelled (an explicit caller decision).
  kDeadlineExceeded,
  /// The caller revoked the request through CancelToken::cancel() and the
  /// operation stopped cooperatively at the next safe point. Like
  /// kDeadlineExceeded nothing partial is published, but this code marks a
  /// deliberate abort rather than an expired time budget.
  kCancelled,
};

/// Stable lower_snake_case name for every StatusCode. tools/lint.sh checks
/// that this switch covers each enumerator — extend both together.
inline const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kNumericalError:
      return "numerical_error";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kInvariantViolation:
      return "invariant_violation";
    case StatusCode::kDataCorruption:
      return "data_corruption";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNumericBreakdown:
      return "numeric_breakdown";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// Value-semantic status object. `Status::ok()` is the success singleton.
/// The class is [[nodiscard]]: any call site that drops a returned Status
/// is a compile-time warning (an error under PANGULU_WERROR).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_argument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status out_of_range(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status failed_precondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status numerical_error(std::string m) {
    return Status(StatusCode::kNumericalError, std::move(m));
  }
  static Status io_error(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status invariant_violation(std::string m) {
    return Status(StatusCode::kInvariantViolation, std::move(m));
  }
  static Status data_corruption(std::string m) {
    return Status(StatusCode::kDataCorruption, std::move(m));
  }
  static Status resource_exhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status numeric_breakdown(std::string m) {
    return Status(StatusCode::kNumericBreakdown, std::move(m));
  }
  static Status deadline_exceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Throws std::runtime_error when not ok. Used at API boundaries where the
  /// caller opted into exceptions.
  void check() const {
    if (!is_ok()) throw std::runtime_error(message_);
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Assertion macro for internal invariants. Enabled in all build types: the
/// solver's correctness contracts are cheap relative to factorisation work.
#define PANGULU_CHECK(cond, msg)                                           \
  do {                                                                     \
    if (!(cond)) {                                                         \
      throw std::logic_error(std::string("PANGULU_CHECK failed: ") + msg + \
                             " at " + __FILE__ + ":" +                     \
                             std::to_string(__LINE__));                    \
    }                                                                      \
  } while (0)

}  // namespace pangulu
