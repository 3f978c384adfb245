// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Reactor + worker-pool implementation of net::Server (see server.h for
// the architecture).  Lock discipline: `mu_` guards every structure
// shared between the reactor and the workers (session queues, the run
// queue, counters, the drain deadline); service calls NEVER run under
// mu_; the listen socket and the socket-side session fields (FrameReader,
// pending_write, the epoll interest) belong to the reactor alone and need
// no lock.  A parked Await is answered by its OnWaitEnd completion, which
// runs on whichever thread ends the wait while the service's locks are
// held, and takes Link::mu and then mu_: service locks -> Link::mu -> mu_.
// That order is acyclic because no service call ever runs under either.

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/string_util.h"

namespace twbg::net {

namespace {

constexpr size_t kMaxWorkerThreads = 64;
constexpr size_t kReadChunk = 64 * 1024;
// A draining reactor re-checks its drain this often; others only wake up.
constexpr int kDrainTickMs = 1;

Status Errno(const char* what) {
  return Status::Internal(
      common::Format("%s: %s", what, std::strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Status ServerOptions::Validate() const {
  if (host.empty()) {
    return Status::InvalidArgument("host must not be empty");
  }
  if (worker_threads < 1 || worker_threads > kMaxWorkerThreads) {
    return Status::InvalidArgument(
        common::Format("worker_threads must be in [1, %zu], got %zu",
                       kMaxWorkerThreads, worker_threads));
  }
  if (max_sessions == 0) {
    return Status::InvalidArgument("max_sessions must be positive");
  }
  if (max_inflight_per_session == 0) {
    return Status::InvalidArgument(
        "max_inflight_per_session must be positive");
  }
  if (drain_deadline.count() < 0) {
    return Status::InvalidArgument("drain_deadline must not be negative");
  }
  if (retry_after.count() < 0) {
    return Status::InvalidArgument("retry_after must not be negative");
  }
  return Status::OK();
}

class Server::Impl {
 public:
  Impl(ServerOptions options, txn::ConcurrentLockService* service)
      : options_(std::move(options)), service_(service) {
    link_->server = this;
  }

  ~Impl() {
    {
      // From here on Cleanup answers parked Awaits, not their completions.
      std::scoped_lock lock(link_->mu);
      link_->server = nullptr;
    }
    Stop();
    Join();
    {
      std::scoped_lock lock(mu_);
      stop_workers_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  Status Start() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Errno("socket");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          common::Format("cannot parse host '%s'", options_.host.c_str()));
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return Errno("bind");
    }
    if (listen(listen_fd_, SOMAXCONN) < 0) return Errno("listen");
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    TWBG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return Errno("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return Errno("epoll_ctl(listen)");
    }
    ev.data.fd = wake_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Errno("epoll_ctl(wake)");
    }

    for (size_t i = 0; i < options_.worker_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    reactor_ = std::thread([this] { ReactorLoop(); });
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  void BeginDrain() { StartDrain(options_.drain_deadline); }

  void Stop() { StartDrain(std::chrono::milliseconds(0)); }

  void Join() {
    if (reactor_.joinable()) reactor_.join();
  }

  ServerStats stats() const {
    std::scoped_lock lock(mu_);
    ServerStats out = stats_;
    out.sessions_active = sessions_.size();
    out.draining = draining_.load(std::memory_order_relaxed);
    return out;
  }

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

 private:
  // One TCP connection.  See the file comment for field ownership.
  struct Session {
    int fd = -1;
    uint64_t id = 0;
    // Reactor-only.
    FrameReader reader;
    std::string pending_write;
    uint32_t events = EPOLLIN;  // the registered epoll interest
    // Guarded by Impl::mu_.
    std::deque<Request> inbox;
    std::string out;
    bool executing = false;
    bool awaiting = false;  // await_req_id is not answered yet
    bool closing = false;
    bool cleaned = false;
    uint64_t await_req_id = 0;
    lock::TransactionId await_tid = 0;
    std::set<lock::TransactionId> txns;
  };

  // What one executed request did, applied back under mu_ by the worker.
  struct ExecResult {
    Response response;
    lock::TransactionId began = 0;
    lock::TransactionId terminated = 0;
  };

  // How an OnWaitEnd completion reaches the server: one the service runs
  // after the server is gone finds `server` null, not freed memory.
  struct Link {
    std::mutex mu;
    Impl* server = nullptr;  // guarded by mu
  };

  uint32_t RetryAfterUs() const {
    return static_cast<uint32_t>(options_.retry_after.count());
  }

  void StartDrain(std::chrono::milliseconds deadline) {
    {
      std::scoped_lock lock(mu_);
      const bool was_draining =
          draining_.exchange(true, std::memory_order_relaxed);
      const auto at = std::chrono::steady_clock::now() + deadline;
      // A Stop after BeginDrain tightens the deadline; never loosens it.
      if (!was_draining || at < drain_deadline_at_) drain_deadline_at_ = at;
    }
    WakeReactor();  // the reactor closes the listen socket (Tick)
  }

  void WakeReactor() {
    if (wake_fd_ < 0) return;
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }

  // ---- reactor side ----

  void ReactorLoop() {
    std::vector<epoll_event> events(128);
    while (true) {
      // Sockets and the eventfd (workers, wait-end completions, drain
      // requests) drive everything; only a drain is re-checked on a timer.
      const int timeout_ms =
          draining_.load(std::memory_order_relaxed) ? kDrainTickMs : -1;
      const int n =
          epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     timeout_ms);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          uint64_t drained = 0;
          while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        if (fd == listen_fd_) {
          AcceptAll();
          continue;
        }
        auto it = sessions_by_fd_.find(fd);
        if (it == sessions_by_fd_.end()) continue;
        const std::shared_ptr<Session>& session = it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          MarkClosing(*session);
          continue;
        }
        if (events[i].events & EPOLLIN) OnReadable(*session);
        if (events[i].events & EPOLLOUT) FlushWrites(*session);
      }
      if (Tick()) break;
    }
  }

  void AcceptAll() {
    while (true) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or listen fd already closed by drain
      bool reject;
      {
        std::scoped_lock lock(mu_);
        reject = sessions_.size() >= options_.max_sessions ||
                 draining_.load(std::memory_order_relaxed);
      }
      if (reject) {
        close(fd);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto session = std::make_shared<Session>();
      session->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        close(fd);
        continue;
      }
      sessions_by_fd_[fd] = session;
      std::scoped_lock lock(mu_);
      session->id = ++stats_.sessions_total;
      sessions_[fd] = session;
    }
  }

  void OnReadable(Session& session) {
    char chunk[kReadChunk];
    while (true) {
      const ssize_t n = read(session.fd, chunk, sizeof(chunk));
      if (n > 0) {
        session.reader.Append(chunk, static_cast<size_t>(n));
        if (!DrainFrames(session)) return;  // protocol error: closing
        if (static_cast<size_t>(n) < sizeof(chunk)) return;
        // A peer that keeps the socket full keeps us here: flush as we go,
        // and stop once it leaves its replies unread (FlushWrites).
        FlushWrites(session);
        if ((session.events & EPOLLIN) == 0) return;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      MarkClosing(session);  // EOF or hard error: the peer is gone
      return;
    }
  }

  // Splits and enqueues every complete frame.  Returns false when the
  // stream turned out to be corrupt and the session is now closing.
  bool DrainFrames(Session& session) {
    std::string payload;
    while (true) {
      Status next = session.reader.Next(&payload);
      if (next.IsWouldBlock()) return true;
      if (!next.ok()) {
        ProtocolError(session, next, /*req_id=*/0);
        return false;
      }
      Request request;
      Status decoded = DecodeRequest(payload, &request);
      if (!decoded.ok()) {
        ProtocolError(session, decoded, /*req_id=*/0);
        return false;
      }
      std::scoped_lock lock(mu_);
      if (session.closing) return false;
      ++stats_.requests;
      const size_t inflight =
          session.inbox.size() +
          (session.executing || session.awaiting ? 1 : 0);
      if (inflight >= options_.max_inflight_per_session) {
        ++stats_.inflight_rejects;
        Response shed;
        shed.type = request.type;
        shed.req_id = request.req_id;
        SetResponseStatus(
            Status::ResourceExhausted(common::Format(
                "session in-flight limit (%zu) reached; retry after backoff",
                options_.max_inflight_per_session)),
            RetryAfterUs(), &shed);
        session.out += EncodeResponse(shed);
        ++stats_.responses;
        continue;
      }
      session.inbox.push_back(std::move(request));
      ScheduleLocked(sessions_[session.fd]);
    }
  }

  // A malformed frame: answer with the decode error (best effort — the
  // correlation id may be unrecoverable) and drop the connection; there
  // is no way to resynchronize a corrupt length-prefixed stream.
  void ProtocolError(Session& session, const Status& error, uint64_t req_id) {
    std::scoped_lock lock(mu_);
    ++stats_.protocol_errors;
    Response response;
    response.type = MsgType::kPing;
    response.req_id = req_id;
    SetResponseStatus(error, 0, &response);
    session.out += EncodeResponse(response);
    ++stats_.responses;
    MarkClosingLocked(session);
  }

  void MarkClosing(Session& session) {
    std::scoped_lock lock(mu_);
    MarkClosingLocked(session);
  }

  void MarkClosingLocked(Session& session) {
    if (session.closing) return;
    session.closing = true;
    auto it = sessions_.find(session.fd);
    if (it != sessions_.end()) ScheduleLocked(it->second);
  }

  // Hands the session to a worker when it has runnable work and no
  // worker owns it.  mu_ held.
  void ScheduleLocked(const std::shared_ptr<Session>& session) {
    if (session->executing || session->cleaned) return;
    // A parked Await holds the queue back; a closing session's Cleanup
    // answers it.
    if (!session->closing && (session->awaiting || session->inbox.empty())) {
      return;
    }
    session->executing = true;
    run_queue_.push_back(session);
    work_cv_.notify_one();
  }

  // Moves worker-produced bytes into the reactor-owned write buffer and
  // pushes them into the socket, then sets the session's epoll interest:
  // EPOLLOUT while bytes wait for the socket, and EPOLLIN except once
  // more than kMaxFrameBytes of replies went unwritten — a peer that does
  // not read its replies is not read either, until they have all flushed.
  void FlushWrites(Session& session) {
    {
      std::scoped_lock lock(mu_);
      if (!session.out.empty()) {
        session.pending_write += session.out;
        session.out.clear();
      }
    }
    while (!session.pending_write.empty()) {
      // MSG_NOSIGNAL: writing to a peer that reset the connection fails
      // with EPIPE instead of raising SIGPIPE, which kills the process.
      const ssize_t n = send(session.fd, session.pending_write.data(),
                             session.pending_write.size(), MSG_NOSIGNAL);
      if (n > 0) {
        session.pending_write.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      MarkClosing(session);  // write error: the peer is gone
      return;
    }
    uint32_t events = EPOLLIN;
    if (!session.pending_write.empty()) {
      events = EPOLLOUT;
      if (session.pending_write.size() <= kMaxFrameBytes) {
        events |= session.events & EPOLLIN;  // resumes only once flushed
      }
    }
    if (events == session.events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = session.fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session.fd, &ev);
    session.events = events;
  }

  // One reactor housekeeping round: flush writes, retire cleaned
  // sessions, advance the drain.  Returns true when the server is fully
  // drained and the reactor should exit.
  bool Tick() {
    std::vector<std::shared_ptr<Session>> flush;
    std::vector<std::shared_ptr<Session>> retire;
    {
      std::scoped_lock lock(mu_);
      for (auto& [fd, session] : sessions_) {
        if (session->cleaned) {
          retire.push_back(session);
        } else if (!session->out.empty()) {
          flush.push_back(session);
        }
      }
    }
    for (const auto& session : flush) FlushWrites(*session);
    for (const auto& session : retire) {
      FlushWrites(*session);  // last-gasp delivery of cleanup responses
      {
        std::scoped_lock lock(mu_);
        sessions_.erase(session->fd);
      }
      sessions_by_fd_.erase(session->fd);
      close(session->fd);
    }

    if (!draining_.load(std::memory_order_relaxed)) return false;
    if (listen_fd_ >= 0) {
      // Closing the listen socket is the "stop accepting" edge: the epoll
      // registration dies with the fd and later connects are refused by
      // the kernel.  Accepts that beat it are closed by AcceptAll.
      close(listen_fd_);
      listen_fd_ = -1;
    }
    return AdvanceDrain();
  }

  // Drain engine: once every in-flight transaction has terminated — or
  // the deadline has passed — close every session (their cleanup aborts
  // whatever is left).  Done when no session remains.
  bool AdvanceDrain() {
    std::vector<std::shared_ptr<Session>> open;
    std::chrono::steady_clock::time_point deadline;
    {
      std::scoped_lock lock(mu_);
      if (sessions_.empty() && run_queue_.empty()) return true;
      for (auto& [fd, session] : sessions_) open.push_back(session);
      deadline = drain_deadline_at_;
    }
    const bool deadline_passed = std::chrono::steady_clock::now() >= deadline;
    bool any_live = false;
    if (!deadline_passed) {
      for (const auto& session : open) {
        std::vector<lock::TransactionId> txns;
        {
          std::scoped_lock lock(mu_);
          txns.assign(session->txns.begin(), session->txns.end());
          // A parked await or queued work counts as in-flight even if
          // its transaction is technically terminated already.
          if (session->awaiting || session->executing ||
              !session->inbox.empty()) {
            any_live = true;
          }
        }
        for (lock::TransactionId tid : txns) {
          Result<txn::TxnState> state = service_->State(tid);
          if (state.ok() && (*state == txn::TxnState::kActive ||
                             *state == txn::TxnState::kBlocked)) {
            any_live = true;
            break;
          }
        }
        if (any_live) break;
      }
      if (any_live) return false;  // keep waiting for clients to finish
    }
    std::scoped_lock lock(mu_);
    for (const auto& session : open) MarkClosingLocked(*session);
    return false;  // exit on a later tick, once every cleanup retired
  }

  // ---- worker side ----

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      work_cv_.wait(lock, [this] {
        return stop_workers_ || !run_queue_.empty();
      });
      if (run_queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      std::shared_ptr<Session> session = run_queue_.front();
      run_queue_.pop_front();
      // Drain this session's queue; `executing` keeps every other worker
      // (and the scheduler) away until we put it down.
      while (true) {
        if (session->closing) {
          lock.unlock();
          Cleanup(*session);
          lock.lock();
          session->cleaned = true;
          session->executing = false;
          break;
        }
        if (session->inbox.empty()) {
          session->executing = false;
          break;
        }
        Request request = std::move(session->inbox.front());
        session->inbox.pop_front();
        if (request.type == MsgType::kAwait) {
          // Its completion answers it — at once, on this thread, unless
          // the transaction is blocked.
          session->awaiting = true;
          session->await_req_id = request.req_id;
          session->await_tid = request.tid;
          lock.unlock();
          service_->OnWaitEnd(
              request.tid, [link = link_, session, req_id = request.req_id](
                               const Status& status) {
                std::scoped_lock link_lock(link->mu);
                if (link->server == nullptr) return;
                link->server->FinishAwait(session, req_id, status);
              });
          lock.lock();
          if (!session->awaiting || session->closing) continue;
          session->executing = false;  // FinishAwait reschedules it
          break;
        }
        lock.unlock();
        ExecResult result = Execute(request);
        lock.lock();
        if (result.began != 0) session->txns.insert(result.began);
        if (result.terminated != 0) session->txns.erase(result.terminated);
        session->out += EncodeResponse(result.response);
        ++stats_.responses;
      }
      WakeReactor();  // new bytes to flush / a cleaned session to retire
    }
  }

  // Executes one decoded request against the service.  No locks held.
  ExecResult Execute(const Request& request) {
    ExecResult result;
    result.response.type = request.type;
    result.response.req_id = request.req_id;
    Response& response = result.response;
    switch (request.type) {
      case MsgType::kBegin: {
        if (draining_.load(std::memory_order_relaxed)) {
          SetResponseStatus(
              Status::ResourceExhausted(
                  "daemon is draining; no new transactions"),
              RetryAfterUs(), &response);
          break;
        }
        Result<lock::TransactionId> tid = service_->Begin();
        if (tid.ok()) {
          response.tid = *tid;
          result.began = *tid;
        } else {
          SetResponseStatus(tid.status(), RetryAfterUs(), &response);
        }
        break;
      }
      case MsgType::kAcquire: {
        Result<lock::RequestOutcome> outcome =
            service_->AcquireAsync(request.tid, request.rid, request.mode);
        if (outcome.ok()) {
          response.outcome = *outcome;
        } else {
          SetResponseStatus(outcome.status(), RetryAfterUs(), &response);
        }
        break;
      }
      case MsgType::kAwait:
        break;  // parked by WorkerLoop, never executed here
      case MsgType::kCommit: {
        Status committed = service_->Commit(request.tid);
        SetResponseStatus(committed, 0, &response);
        if (committed.ok()) result.terminated = request.tid;
        break;
      }
      case MsgType::kAbort: {
        Status aborted = service_->Abort(request.tid);
        SetResponseStatus(aborted, 0, &response);
        if (aborted.ok()) result.terminated = request.tid;
        break;
      }
      case MsgType::kState: {
        Result<txn::TxnState> state = service_->State(request.tid);
        if (state.ok()) {
          response.txn_state = *state;
        } else {
          SetResponseStatus(state.status(), 0, &response);
        }
        break;
      }
      case MsgType::kSetCost:
        SetResponseStatus(service_->SetCost(request.tid, request.cost), 0,
                          &response);
        break;
      case MsgType::kDetect:
        response.detect = txn::ProjectReport(service_->RunDetectionPass());
        break;
      case MsgType::kProbeDeadlock: {
        Result<bool> deadlocked = service_->HasDeadlock();
        if (deadlocked.ok()) {
          response.truth = *deadlocked;
        } else {
          SetResponseStatus(deadlocked.status(), 0, &response);
        }
        break;
      }
      case MsgType::kView: {
        Result<std::string> text = service_->RenderView(request.view);
        if (text.ok()) {
          response.text = *text;
        } else {
          SetResponseStatus(text.status(), 0, &response);
        }
        break;
      }
      case MsgType::kStats: {
        response.stats.live_txns = service_->live_transactions();
        response.stats.deadlock_victims = service_->deadlock_victims();
        response.stats.snapshot_epoch = service_->snapshot_epoch();
        response.stats.num_shards = service_->num_shards();
        response.stats.admission_rejects = service_->admission_rejects();
        response.stats.resolutions_rejected =
            service_->resolutions_rejected();
        std::scoped_lock lock(mu_);
        response.stats.sessions_active = sessions_.size();
        response.stats.sessions_total = stats_.sessions_total;
        response.stats.orphan_aborts = stats_.orphan_aborts;
        break;
      }
      case MsgType::kPing:
        break;  // kOk
    }
    return result;
  }

  // Answers the session's Await `req_id` with `status`, unless it was
  // answered already (by Cleanup), and lets the session's queue run on.
  void FinishAwait(const std::shared_ptr<Session>& session, uint64_t req_id,
                   const Status& status) {
    Response response;
    response.type = MsgType::kAwait;
    response.req_id = req_id;
    SetResponseStatus(status, 0, &response);
    std::scoped_lock lock(mu_);
    if (!session->awaiting || session->await_req_id != req_id) return;
    session->awaiting = false;
    session->out += EncodeResponse(response);
    ++stats_.responses;
    ScheduleLocked(session);
    WakeReactor();
  }

  // Dead-peer / drain cleanup, run as the session's final serialized
  // task: abort every live transaction the session owns (releasing its
  // locks and unblocking waiters), then answer anything still queued so
  // no request is silently dropped.  No locks held on entry.
  void Cleanup(Session& session) {
    std::vector<lock::TransactionId> txns;
    std::deque<Request> unanswered;
    bool was_awaiting = false;
    uint64_t await_req_id = 0;
    lock::TransactionId await_tid = 0;
    {
      std::scoped_lock lock(mu_);
      txns.assign(session.txns.begin(), session.txns.end());
      session.txns.clear();
      unanswered.swap(session.inbox);
      // An Await whose wait has not ended — on another session's
      // transaction, say — is answered here; its completion, when it
      // runs, finds it answered.
      if (session.awaiting) {
        was_awaiting = true;
        await_req_id = session.await_req_id;
        await_tid = session.await_tid;
        session.awaiting = false;
      }
    }
    uint64_t aborted = 0;
    for (lock::TransactionId tid : txns) {
      // Abort is a no-op error for already-terminated transactions
      // (committed, or earlier deadlock victims) — only live ones count
      // as orphans.
      if (service_->Abort(tid).ok()) ++aborted;
    }
    std::string responses;
    if (was_awaiting) {
      Response response;
      response.type = MsgType::kAwait;
      response.req_id = await_req_id;
      SetResponseStatus(
          Status::DeadlockVictim(common::Format(
              "T%u aborted: session closed while waiting", await_tid)),
          0, &response);
      responses += EncodeResponse(response);
    }
    for (const Request& request : unanswered) {
      Response response;
      response.type = request.type;
      response.req_id = request.req_id;
      SetResponseStatus(
          Status::ResourceExhausted("session closing; request not executed"),
          RetryAfterUs(), &response);
      responses += EncodeResponse(response);
    }
    std::scoped_lock lock(mu_);
    stats_.orphan_aborts += aborted;
    stats_.responses += (was_awaiting ? 1 : 0) + unanswered.size();
    session.out += responses;
  }

  ServerOptions options_;
  txn::ConcurrentLockService* service_;
  const std::shared_ptr<Link> link_ = std::make_shared<Link>();

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::thread reactor_;
  std::vector<std::thread> workers_;

  // Reactor-only view of the sessions (lock-free lookups; the reactor is
  // the single mutator of both maps, but mutations also hold mu_ so
  // stats() can size sessions_ safely).
  std::map<int, std::shared_ptr<Session>> sessions_by_fd_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<int, std::shared_ptr<Session>> sessions_;
  std::deque<std::shared_ptr<Session>> run_queue_;
  bool stop_workers_ = false;
  ServerStats stats_;

  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point drain_deadline_at_{};  // mu_
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Create(
    ServerOptions options, txn::ConcurrentLockService* service) {
  TWBG_RETURN_IF_ERROR(options.Validate());
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  return std::unique_ptr<Server>(
      new Server(std::make_unique<Impl>(std::move(options), service)));
}

Status Server::Start() { return impl_->Start(); }
uint16_t Server::port() const { return impl_->port(); }
void Server::BeginDrain() { impl_->BeginDrain(); }
void Server::Stop() { impl_->Stop(); }
void Server::Join() { impl_->Join(); }
ServerStats Server::stats() const { return impl_->stats(); }
bool Server::draining() const { return impl_->draining(); }

}  // namespace twbg::net
