// Structured error model: Status (code + chained context message) and
// Result<T> (value or Status).
//
// blackwatch ingests real-world telemetry that arrives truncated, duplicated
// and malformed; "throw std::runtime_error" loses where and why, and
// std::optional loses everything. Loaders and other fallible subsystems
// return Status/Result instead: a machine-readable code for control flow
// (usage vs. data vs. internal error -> distinct tool exit codes) plus a
// human-readable message that accumulates context as it propagates
// ("load_dataset_csv: flows.csv: line 17: bad src_ip").
//
// Conventions:
//   - Functions that cannot fail keep plain return types.
//   - Fallible leaf parsers return Result<T>; Status-only paths return
//     Status. Callers add context with with_context() before forwarding.
//   - Exceptions remain for programming errors and for writers with no
//     partial result to report (e.g. export_dataset_csv).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace bw::util {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,      ///< malformed input value (bad row, bad flag)
  kNotFound,             ///< missing file/entry
  kDataLoss,             ///< corrupt or truncated data
  kFailedPrecondition,   ///< operation not valid in this state
  kInternal,             ///< bug or unexpected failure
  kUnavailable,          ///< transient environment failure; safe to retry
};

[[nodiscard]] std::string_view to_string(StatusCode code);

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;

  [[nodiscard]] static Status error(StatusCode code, std::string message) {
    Status s;
    s.code_ = code == StatusCode::kOk ? StatusCode::kInternal : code;
    s.message_ = std::move(message);
    return s;
  }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  /// The full message including every context frame, most recent first.
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// Prepend a context frame: "ctx: <message>". No-op on OK statuses.
  [[nodiscard]] Status with_context(std::string_view context) const& {
    Status s = *this;
    return std::move(s).with_context(context);
  }
  [[nodiscard]] Status with_context(std::string_view context) && {
    if (!ok()) {
      message_.insert(0, ": ");
      message_.insert(0, context);
    }
    return std::move(*this);
  }

  /// "DATA_LOSS: flows.csv: truncated row" (or "OK").
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_{StatusCode::kOk};
  std::string message_;
};

// Shorthand constructors for the common codes.
[[nodiscard]] inline Status ok_status() { return Status(); }
[[nodiscard]] inline Status invalid_argument(std::string message) {
  return Status::error(StatusCode::kInvalidArgument, std::move(message));
}
[[nodiscard]] inline Status not_found(std::string message) {
  return Status::error(StatusCode::kNotFound, std::move(message));
}
[[nodiscard]] inline Status data_loss(std::string message) {
  return Status::error(StatusCode::kDataLoss, std::move(message));
}
[[nodiscard]] inline Status failed_precondition(std::string message) {
  return Status::error(StatusCode::kFailedPrecondition, std::move(message));
}
[[nodiscard]] inline Status internal_error(std::string message) {
  return Status::error(StatusCode::kInternal, std::move(message));
}
[[nodiscard]] inline Status unavailable(std::string message) {
  return Status::error(StatusCode::kUnavailable, std::move(message));
}

/// A value of type T, or the Status explaining why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = internal_error("Result constructed from an OK status");
    }
  }

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  /// OK when a value is present; the construction error otherwise.
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] T& value() & { return *value_; }
  [[nodiscard]] const T& value() const& { return *value_; }
  [[nodiscard]] T&& value() && { return *std::move(value_); }

  T& operator*() & { return *value_; }
  const T& operator*() const& { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace bw::util
