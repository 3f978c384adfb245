// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// twbg-serverd's engine: a TCP front end over ConcurrentLockService.
//
// Architecture (docs/SERVICE.md has the full protocol):
//
//   * One reactor thread owns the sockets: epoll-driven accept, read,
//     frame reassembly (wire::FrameReader) and write flushing.  It never
//     calls into the lock service.
//   * A small worker pool executes decoded requests.  Requests of one
//     session run strictly FIFO and never concurrently (an `executing`
//     flag hands the whole per-session queue to one worker at a time),
//     so no two service calls for the same transaction can race — which
//     is also what makes dead-peer cleanup safe: it runs as the
//     session's final serialized task.
//   * Blocked acquires never park a thread: Acquire maps to
//     AcquireAsync, and an Await parks the *session* on a
//     ConcurrentLockService::OnWaitEnd completion.  Whoever ends the wait
//     — a releasing Commit/Abort, a detection pass — runs the completion,
//     which queues the answer and wakes the reactor through its eventfd.
//     Nothing polls: the reactor sleeps in epoll_wait until an event
//     arrives (a draining server re-checks its drain every millisecond).
//
// Session model: one TCP connection == one session.  Transactions begun
// on a session belong to it; when the peer dies (EOF, read/write error,
// or a protocol violation) every live transaction of the session is
// aborted so an orphaned holder cannot wedge the TWBG.
//
// Backpressure: admission sheds from the service (kResourceExhausted)
// and the per-session in-flight cap surface as responses carrying
// `retry_after_us` — a wire-level retry-after, never a dropped request.
// A session whose unwritten replies pass kMaxFrameBytes is not read
// until they have flushed, so a peer that never reads cannot grow the
// daemon's memory.
//
// Drain (SIGTERM in twbg-serverd): BeginDrain stops accepting, rejects
// new Begins with kResourceExhausted("draining"), lets in-flight
// transactions finish for up to drain_deadline, then aborts the
// stragglers and closes every session.  No request is silently dropped:
// everything received gets a response before its connection closes.

#ifndef TWBG_NET_SERVER_H_
#define TWBG_NET_SERVER_H_

#include <chrono>
#include <memory>
#include <string>

#include "net/wire.h"

namespace twbg::net {

/// Configuration of a Server (see Create).  Follows the option-struct
/// convention of ConcurrentServiceOptions: plain members, Validate()
/// rejecting out-of-domain values, chrono types for durations.
struct ServerOptions {
  /// Listen address.  Tests bind port 0 and read the ephemeral port back
  /// from Server::port().
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Accepted-connection cap; further accepts are closed immediately.
  size_t max_sessions = 4096;
  /// Per-session cap on decoded-but-unanswered requests; beyond it a
  /// request is answered kResourceExhausted with `retry_after` instead
  /// of being queued.
  size_t max_inflight_per_session = 64;
  /// Worker threads executing service calls, in [1, 64].
  size_t worker_threads = 2;
  /// How long BeginDrain lets in-flight transactions finish before
  /// aborting them.
  std::chrono::milliseconds drain_deadline{2000};
  /// The retry-after hint stamped on kResourceExhausted responses.
  std::chrono::microseconds retry_after{1000};

  /// Rejects an empty host, worker_threads outside [1, 64], zero
  /// max_sessions / max_inflight_per_session, and negative durations.
  Status Validate() const;
};

/// Daemon counters (Server::stats; also served to clients via kStats).
struct ServerStats {
  uint64_t sessions_active = 0;
  uint64_t sessions_total = 0;
  uint64_t requests = 0;
  uint64_t responses = 0;
  /// Connections dropped for malformed frames.
  uint64_t protocol_errors = 0;
  /// Transactions aborted by dead-peer or drain-deadline cleanup.
  uint64_t orphan_aborts = 0;
  /// Requests shed by the per-session in-flight cap.
  uint64_t inflight_rejects = 0;
  bool draining = false;
};

/// The TCP lock-service daemon.  Thread-safe; see the file comment for
/// the threading model.
class Server {
 public:
  /// Validates `options` and builds the server around `service` (not
  /// owned; must outlive the server), in either detection mode.
  /// The socket is not opened until Start().
  static Result<std::unique_ptr<Server>> Create(
      ServerOptions options, txn::ConcurrentLockService* service);

  /// Stops (immediate drain) and joins everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the reactor and worker threads.
  Status Start();

  /// The bound port (after Start; useful with options.port == 0).
  uint16_t port() const;

  /// Initiates graceful drain: stop accepting, reject new Begins, let
  /// in-flight transactions finish under options.drain_deadline, then
  /// abort the rest and shut down.  Idempotent; returns immediately —
  /// Join() to wait for completion.
  void BeginDrain();

  /// Immediate shutdown: drain with a zero deadline.  Idempotent.
  void Stop();

  /// Blocks until the reactor has exited (all sessions closed).
  void Join();

  ServerStats stats() const;
  bool draining() const;

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace twbg::net

#endif  // TWBG_NET_SERVER_H_
