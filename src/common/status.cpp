#include "common/status.h"

namespace vc {

std::string_view CodeName(Code c) {
  switch (c) {
    case Code::kOk: return "OK";
    case Code::kNotFound: return "NotFound";
    case Code::kAlreadyExists: return "AlreadyExists";
    case Code::kConflict: return "Conflict";
    case Code::kGone: return "Gone";
    case Code::kInvalidArgument: return "InvalidArgument";
    case Code::kForbidden: return "Forbidden";
    case Code::kUnauthorized: return "Unauthorized";
    case Code::kTooManyRequests: return "TooManyRequests";
    case Code::kTimeout: return "Timeout";
    case Code::kUnavailable: return "Unavailable";
    case Code::kAborted: return "Aborted";
    case Code::kFailedPrecondition: return "FailedPrecondition";
    case Code::kInternal: return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(CodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& s) { return os << s.ToString(); }

Status OkStatus() { return {}; }
Status NotFoundError(std::string_view m) { return {Code::kNotFound, std::string(m)}; }
Status AlreadyExistsError(std::string_view m) { return {Code::kAlreadyExists, std::string(m)}; }
Status ConflictError(std::string_view m) { return {Code::kConflict, std::string(m)}; }
Status GoneError(std::string_view m) { return {Code::kGone, std::string(m)}; }
Status InvalidArgumentError(std::string_view m) { return {Code::kInvalidArgument, std::string(m)}; }
Status ForbiddenError(std::string_view m) { return {Code::kForbidden, std::string(m)}; }
Status UnauthorizedError(std::string_view m) { return {Code::kUnauthorized, std::string(m)}; }
Status TooManyRequestsError(std::string_view m) { return {Code::kTooManyRequests, std::string(m)}; }
Status TimeoutError(std::string_view m) { return {Code::kTimeout, std::string(m)}; }
Status UnavailableError(std::string_view m) { return {Code::kUnavailable, std::string(m)}; }
Status AbortedError(std::string_view m) { return {Code::kAborted, std::string(m)}; }
Status FailedPreconditionError(std::string_view m) {
  return {Code::kFailedPrecondition, std::string(m)};
}
Status InternalError(std::string_view m) { return {Code::kInternal, std::string(m)}; }

}  // namespace vc
