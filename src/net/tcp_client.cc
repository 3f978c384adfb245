// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "net/tcp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"

namespace twbg::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(
      common::Format("%s: %s", what, std::strerror(errno)));
}

timeval ToTimeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  return tv;
}

}  // namespace

Status ClientOptions::Validate() const {
  if (host.empty()) {
    return Status::InvalidArgument("host must not be empty");
  }
  if (port == 0) {
    return Status::InvalidArgument("port must be set");
  }
  if (connect_timeout.count() < 0 || request_timeout.count() < 0) {
    return Status::InvalidArgument("timeouts must not be negative");
  }
  return Status::OK();
}

Result<std::unique_ptr<TcpClient>> TcpClient::Create(ClientOptions options) {
  TWBG_RETURN_IF_ERROR(options.Validate());
  std::unique_ptr<TcpClient> client(new TcpClient(std::move(options)));
  TWBG_RETURN_IF_ERROR(client->Connect());
  return client;
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) close(fd_);
}

Status TcpClient::Connect() {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  if (options_.connect_timeout.count() > 0) {
    // SO_SNDTIMEO bounds a blocking connect() on Linux.
    const timeval tv = ToTimeval(options_.connect_timeout);
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        common::Format("cannot parse host '%s'", options_.host.c_str()));
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("connect");
  }
  const timeval send_tv = ToTimeval(std::chrono::milliseconds(0));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &send_tv, sizeof(send_tv));
  if (options_.request_timeout.count() > 0) {
    const timeval tv = ToTimeval(options_.request_timeout);
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status TcpClient::RoundTrip(const Request& request, Response* response) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is not connected");
  }
  Request stamped = request;
  stamped.req_id = next_req_id_++;
  const std::string frame = EncodeRequest(stamped);
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a daemon that closed the connection is an EPIPE
    // error here, not a SIGPIPE that kills the client.
    const ssize_t n =
        send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  std::string payload;
  while (true) {
    Status next = reader_.Next(&payload);
    if (next.ok()) break;
    if (!next.IsWouldBlock()) return next;  // corrupt stream
    char chunk[16 * 1024];
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n == 0) {
      return Status::Internal("connection closed by the server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "timed out waiting for the server's response");
      }
      return Errno("read");
    }
    reader_.Append(chunk, static_cast<size_t>(n));
  }
  TWBG_RETURN_IF_ERROR(DecodeResponse(payload, response));
  if (response->req_id != stamped.req_id) {
    return Status::Internal(common::Format(
        "response correlation mismatch: sent %llu, got %llu",
        static_cast<unsigned long long>(stamped.req_id),
        static_cast<unsigned long long>(response->req_id)));
  }
  if (response->code == StatusCode::kResourceExhausted) {
    last_retry_after_us_ = response->retry_after_us;
  }
  return Status::OK();
}

Result<lock::TransactionId> TcpClient::Begin() {
  Request request;
  request.type = MsgType::kBegin;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.tid;
}

Result<lock::RequestOutcome> TcpClient::Acquire(lock::TransactionId tid,
                                                lock::ResourceId rid,
                                                lock::LockMode mode) {
  Request request;
  request.type = MsgType::kAcquire;
  request.tid = tid;
  request.rid = rid;
  request.mode = mode;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.outcome;
}

Status TcpClient::Await(lock::TransactionId tid) {
  Request request;
  request.type = MsgType::kAwait;
  request.tid = tid;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  return ResponseStatus(response);
}

Status TcpClient::Commit(lock::TransactionId tid) {
  Request request;
  request.type = MsgType::kCommit;
  request.tid = tid;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  return ResponseStatus(response);
}

Status TcpClient::Abort(lock::TransactionId tid) {
  Request request;
  request.type = MsgType::kAbort;
  request.tid = tid;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  return ResponseStatus(response);
}

Result<txn::TxnState> TcpClient::State(lock::TransactionId tid) {
  Request request;
  request.type = MsgType::kState;
  request.tid = tid;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.txn_state;
}

Status TcpClient::SetCost(lock::TransactionId tid, double cost) {
  Request request;
  request.type = MsgType::kSetCost;
  request.tid = tid;
  request.cost = cost;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  return ResponseStatus(response);
}

Result<DetectResult> TcpClient::Detect() {
  Request request;
  request.type = MsgType::kDetect;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.detect;
}

Result<bool> TcpClient::HasDeadlock() {
  Request request;
  request.type = MsgType::kProbeDeadlock;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.truth;
}

Result<std::string> TcpClient::View(ServiceView view) {
  Request request;
  request.type = MsgType::kView;
  request.view = view;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.text;
}

Result<ClientStats> TcpClient::Stats() {
  Request request;
  request.type = MsgType::kStats;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  TWBG_RETURN_IF_ERROR(ResponseStatus(response));
  return response.stats;
}

Status TcpClient::Ping() {
  Request request;
  request.type = MsgType::kPing;
  Response response;
  TWBG_RETURN_IF_ERROR(RoundTrip(request, &response));
  return ResponseStatus(response);
}

}  // namespace twbg::net
