/// \file status.hpp
/// \brief Error vocabulary of the unified API: a `Status` code+message pair
/// and an `Expected<T>` carrying either a value or a non-ok `Status`.
///
/// The facade (`api::Fitter`, `api::ModelHandle`) and the sampling ingest
/// path report every anticipated failure — bad input, cancellation,
/// numerical breakdown — through these types instead of exceptions, so
/// serving code can branch on the code without a try/catch at every call
/// site. The legacy free functions (`core::mfti_fit`, ...) keep their
/// throwing contracts as the compatibility layer.
///
/// This header is dependency-free on purpose: lower layers (sampling) may
/// include it without pulling the rest of the API in.

#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace mfti::api {

/// Failure category. `Ok` is reserved for the success state of `Status`;
/// every other code describes why an operation produced no value.
enum class StatusCode {
  Ok,
  /// Caller-supplied data or options are unusable (empty sample set,
  /// mismatched dimensions, non-finite values, zero batch size, ...).
  InvalidArgument,
  /// The operation was cancelled through a `CancellationToken`.
  Cancelled,
  /// The named resource (e.g. a registry model) does not exist.
  NotFound,
  /// The computation broke down numerically (singular pencil, rank 0, ...).
  NumericalError,
  /// No implementation exists for the requested operation.
  Unimplemented,
  /// Unanticipated internal failure (escaped exception).
  Internal,
};

/// Number of `StatusCode` values (enumerators are dense from 0). Consumers
/// with per-code tables — e.g. the HTTP mapping in `net/status_http.hpp` —
/// iterate `[0, kNumStatusCodes)` in tests so a new code cannot be added
/// without extending every table.
inline constexpr std::size_t kNumStatusCodes =
    static_cast<std::size_t>(StatusCode::Internal) + 1;

/// Human-readable name of a status code ("ok", "invalid-argument", ...).
const char* status_code_name(StatusCode code);

/// Success-or-error result of an operation. Default-constructed `Status`
/// is ok; factory helpers build the error states.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }
  static Status invalid_argument(std::string msg) {
    return {StatusCode::InvalidArgument, std::move(msg)};
  }
  static Status cancelled(std::string msg) {
    return {StatusCode::Cancelled, std::move(msg)};
  }
  static Status not_found(std::string msg) {
    return {StatusCode::NotFound, std::move(msg)};
  }
  static Status numerical_error(std::string msg) {
    return {StatusCode::NumericalError, std::move(msg)};
  }
  static Status unimplemented(std::string msg) {
    return {StatusCode::Unimplemented, std::move(msg)};
  }
  static Status internal(std::string msg) {
    return {StatusCode::Internal, std::move(msg)};
  }

  bool is_ok() const { return code_ == StatusCode::Ok; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "invalid-argument: SampleSet: inconsistent port dimensions".
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::Ok;
  std::string message_;
};

/// A value of type `T` or the `Status` explaining its absence. The stored
/// status is never ok: constructing an `Expected` from an ok status is a
/// programming error and throws `std::logic_error`.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Expected(Status status) : state_(std::move(status)) {  // NOLINT
    if (std::get<Status>(state_).is_ok()) {
      throw std::logic_error("Expected: constructed from an ok Status");
    }
  }

  bool has_value() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return has_value(); }

  /// The contained value. \throws std::logic_error when holding an error.
  T& value() & {
    require_value();
    return std::get<T>(state_);
  }
  const T& value() const& {
    require_value();
    return std::get<T>(state_);
  }
  T&& value() && {
    require_value();
    return std::get<T>(std::move(state_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// The contained value, or `fallback` when holding an error.
  T value_or(T fallback) const& {
    return has_value() ? std::get<T>(state_) : std::move(fallback);
  }

  /// Ok when a value is present, the stored error otherwise.
  Status status() const {
    return has_value() ? Status::ok() : std::get<Status>(state_);
  }

 private:
  void require_value() const {
    if (!has_value()) {
      throw std::logic_error("Expected: value() on error state: " +
                             std::get<Status>(state_).to_string());
    }
  }

  std::variant<T, Status> state_;
};

}  // namespace mfti::api
