// Status / Result: error-handling vocabulary for the whole project.
//
// The codes deliberately mirror the Kubernetes apiserver HTTP error surface
// (NotFound=404, AlreadyExists=409/AlreadyExists, Conflict=409/Conflict,
// Gone=410, TooManyRequests=429, ...) because almost every fallible call in
// this codebase is ultimately an API operation and the controllers branch on
// exactly these conditions, just as client-go code does.
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace vc {

enum class Code {
  kOk = 0,
  kNotFound,         // 404: object does not exist
  kAlreadyExists,    // 409: create of an existing name
  kConflict,         // 409: resourceVersion precondition failed
  kGone,             // 410: watch revision compacted; client must relist
  kInvalidArgument,  // 400: malformed object or request
  kForbidden,        // 403: RBAC denied
  kUnauthorized,     // 401: unknown identity
  kTooManyRequests,  // 429: rate limited
  kTimeout,          // 504: deadline exceeded
  kUnavailable,      // 503: server shutting down / not ready
  kAborted,          // operation aborted (e.g. watch cancelled)
  kFailedPrecondition,  // call not allowed in the callee's current state
  kInternal,         // invariant violation
};

std::string_view CodeName(Code c);

// A cheap value-type carrying success or (code, message).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Code code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return {}; }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsConflict() const { return code_ == Code::kConflict; }
  bool IsGone() const { return code_ == Code::kGone; }
  bool IsTooManyRequests() const { return code_ == Code::kTooManyRequests; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  Code code_ = Code::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

Status OkStatus();
Status NotFoundError(std::string_view msg);
Status AlreadyExistsError(std::string_view msg);
Status ConflictError(std::string_view msg);
Status GoneError(std::string_view msg);
Status InvalidArgumentError(std::string_view msg);
Status ForbiddenError(std::string_view msg);
Status UnauthorizedError(std::string_view msg);
Status TooManyRequestsError(std::string_view msg);
Status TimeoutError(std::string_view msg);
Status UnavailableError(std::string_view msg);
Status AbortedError(std::string_view msg);
Status FailedPreconditionError(std::string_view msg);
Status InternalError(std::string_view msg);

// Result<T>: either a T or a non-OK Status. Analogous to absl::StatusOr.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : v_(std::move(status)) {  // NOLINT: implicit by design
    assert(!std::get<Status>(v_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(v_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> v_;
};

#define VC_RETURN_IF_ERROR(expr)            \
  do {                                      \
    ::vc::Status _st = (expr);              \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace vc
