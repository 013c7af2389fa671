#include "common/status.h"

#include <cstring>

namespace scoded {

namespace {

// strerror_r comes in two shapes: the XSI variant returns an int and fills
// the caller's buffer; the GNU variant (what glibc gives C++ builds, which
// predefine _GNU_SOURCE) returns a char* that may point at a static string
// instead of the buffer. Overload resolution on the return type handles
// whichever one this libc declared; the other overload is unused there.
[[maybe_unused]] const char* StrerrorResult(int rc, const char* buffer) {
  return rc == 0 ? buffer : "Unknown error";
}
[[maybe_unused]] const char* StrerrorResult(const char* result, const char* /*buffer*/) {
  return result != nullptr ? result : "Unknown error";
}

}  // namespace

std::string ErrnoMessage(int errno_value) {
  char buffer[256];
  buffer[0] = '\0';
  return StrerrorResult(strerror_r(errno_value, buffer, sizeof(buffer)), buffer);
}

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}

Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}

Status OutOfRangeError(std::string message) {
  return Status(StatusCode::kOutOfRange, std::move(message));
}

Status FailedPreconditionError(std::string message) {
  return Status(StatusCode::kFailedPrecondition, std::move(message));
}

Status UnimplementedError(std::string message) {
  return Status(StatusCode::kUnimplemented, std::move(message));
}

Status InternalError(std::string message) {
  return Status(StatusCode::kInternal, std::move(message));
}

Status AlreadyExistsError(std::string message) {
  return Status(StatusCode::kAlreadyExists, std::move(message));
}

Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}

Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}

Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}

Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}

}  // namespace scoded
