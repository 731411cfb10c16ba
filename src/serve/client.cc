#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace movd {
namespace {

/// Wire name -> code, the inverse of StatusCodeName. The two INVALID /
/// INTERNAL spellings are value aliases in the enum, so the canonical
/// serve spellings cover every code the server can emit.
bool StatusCodeFromName(const std::string& name, StatusCode* out) {
  static const struct {
    const char* name;
    StatusCode code;
  } kCodes[] = {
      {"OK", StatusCode::kOk},
      {"CANCELLED", StatusCode::kCancelled},
      {"INVALID_REQUEST", StatusCode::kInvalidArgument},
      {"DEADLINE_EXCEEDED", StatusCode::kDeadlineExceeded},
      {"NOT_FOUND", StatusCode::kNotFound},
      {"DATA_LOSS", StatusCode::kDataLoss},
      {"IO_ERROR", StatusCode::kIoError},
      {"INTERNAL_ERROR", StatusCode::kInternal},
      {"OVERLOADED", StatusCode::kOverloaded},
      {"UNSUPPORTED_VERB", StatusCode::kUnsupportedVerb},
  };
  for (const auto& entry : kCodes) {
    if (name == entry.name) {
      *out = entry.code;
      return true;
    }
  }
  return false;
}

/// The deterministic answers/sweeps slice of an OK body (see
/// ClientResponse::answers).
std::string AnswersSlice(const std::string& body) {
  size_t begin = body.find("\"answers\": ");
  if (begin == std::string::npos) begin = body.find("\"sweeps\": ");
  const size_t end = body.rfind(", \"cache_hit\"");
  if (begin == std::string::npos || end == std::string::npos ||
      end <= begin) {
    return body;  // control/mutation body: compare it whole
  }
  return body.substr(begin, end - begin);
}

/// The "version" field of an OK body, or 0 when absent.
uint64_t BodyVersion(const std::string& body) {
  static const char kNeedle[] = "\"version\": ";
  const size_t pos = body.find(kNeedle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + sizeof(kNeedle) - 1, nullptr,
                       10);
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Status ParseResponseLine(const std::string& line, ClientResponse* out) {
  *out = ClientResponse();
  const bool is_ok = line.rfind("OK ", 0) == 0;
  const bool is_err = line.rfind("ERR ", 0) == 0;
  if (!is_ok && !is_err) {
    return Status::Internal("garbled response line '" + line + "'");
  }
  const size_t id_begin = is_ok ? 3 : 4;
  const size_t id_end = line.find(' ', id_begin);
  if (id_end == std::string::npos) {
    return Status::Internal("response line without a body: '" + line + "'");
  }
  out->id = line.substr(id_begin, id_end - id_begin);
  if (is_ok) {
    out->body = line.substr(id_end + 1);
    out->answers = AnswersSlice(out->body);
    out->version = BodyVersion(out->body);
    return Status::Ok();
  }
  const size_t code_end = line.find(' ', id_end + 1);
  const std::string code_name =
      line.substr(id_end + 1, code_end == std::string::npos
                                  ? std::string::npos
                                  : code_end - id_end - 1);
  StatusCode code = StatusCode::kInternal;
  if (!StatusCodeFromName(code_name, &code)) {
    return Status::Internal("unknown status code in '" + line + "'");
  }
  out->status = Status(
      code, code_end == std::string::npos ? "" : line.substr(code_end + 1));
  return Status::Ok();
}

ServeClient::~ServeClient() { Close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Status ServeClient::Connect(const std::string& socket_path) {
  Close();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Status::IoError("connect " + socket_path + ": " +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  return Status::Ok();
}

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status ServeClient::CallLine(const std::string& request_line,
                             std::string* response_line) {
  if (fd_ < 0) return Status::IoError("not connected");
  std::string wire = request_line;
  if (wire.empty() || wire.back() != '\n') wire += '\n';
  if (!SendAll(fd_, wire)) {
    return Status::IoError(std::string("send: ") + std::strerror(errno));
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *response_line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return Status::Ok();
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IoError(n == 0 ? "connection closed mid-response"
                                    : std::string("recv: ") +
                                          std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status ServeClient::Call(const EngineRequest& request, ClientResponse* out) {
  std::string line;
  const Status called = CallLine(FormatRequestLine(request), &line);
  if (!called.ok()) return called;
  return ParseResponseLine(line, out);
}

Status ServeClient::Stats(std::string* body) {
  std::string line;
  const Status called = CallLine("STATS", &line);
  if (!called.ok()) return called;
  ClientResponse resp;
  const Status parsed = ParseResponseLine(line, &resp);
  if (!parsed.ok()) return parsed;
  if (resp.status.ok()) *body = resp.body;
  return resp.status;
}

Status ServeClient::Shutdown() {
  std::string line;
  // The farewell line is drained so the server finishes its write
  // cleanly; its content does not matter.
  return CallLine("SHUTDOWN", &line);
}

}  // namespace movd
