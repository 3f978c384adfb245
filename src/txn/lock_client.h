// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// twbg::LockClient — the one client surface of the lock service.
//
// Everything that *uses* the service (the REPL, scenario scripts,
// benches, tests) programs against this interface; everything that
// *provides* it implements it.  Two implementations ship:
//
//   * txn::InProcessClient (this header): wraps a ConcurrentLockService
//     in the same address space.  Zero-copy, zero-syscall — the baseline
//     the wire implementation is differentially tested against.
//   * net::TcpClient (net/tcp_client.h): speaks the length-prefixed
//     binary protocol of docs/SERVICE.md to a twbg-serverd daemon.
//
// The interface is deliberately *non-blocking at the lock layer*:
// Acquire returns the immediate outcome (granted / alreadyheld /
// blocked) and a blocked caller observes the grant — or its selection
// as a deadlock victim — through Await/State.  That shape is what lets
// one daemon reactor thread multiplex hundreds of blocked clients, and
// it maps 1:1 onto ConcurrentLockService::AcquireAsync.
//
// Thread contract: one LockClient instance serves one logical client
// session; calls on a single instance must be externally serialized.
// Concurrency comes from many clients, not from sharing one.

#ifndef TWBG_TXN_LOCK_CLIENT_H_
#define TWBG_TXN_LOCK_CLIENT_H_

#include <memory>
#include <string>
#include <vector>

#include "txn/concurrent_service.h"

namespace twbg {

/// Alias of the service-side view selector: LockClient::View renders the
/// same diagnostics over the wire.
using ServiceView = txn::ServiceView;

/// Outcome of LockClient::Detect — the client-visible projection of a
/// core::ResolutionReport (the full report object stays server-side; its
/// rendered text is what the differential tests compare byte-for-byte).
struct DetectResult {
  /// core::ResolutionReport::ToString() of the pass.
  std::string report;
  /// Victims aborted by the pass, in resolution order.
  std::vector<lock::TransactionId> aborted;
  /// Elementary cycles the pass resolved.
  uint64_t cycles_detected = 0;
  /// Concatenated core::CyclePostMortem::ToString() renderings; empty
  /// when the pass resolved nothing or post-mortem collection is off.
  std::string post_mortems;
};

/// Service-level counters surfaced to clients (LockClient::Stats).  The
/// session_* fields are only meaningful for network clients; an
/// in-process client reports zeroes there.
struct ClientStats {
  uint64_t live_txns = 0;
  uint64_t deadlock_victims = 0;
  uint64_t snapshot_epoch = 0;
  uint64_t num_shards = 0;
  uint64_t admission_rejects = 0;
  uint64_t resolutions_rejected = 0;
  /// Sessions currently connected to the daemon (0 in-process).
  uint64_t sessions_active = 0;
  /// Sessions accepted since the daemon started (0 in-process).
  uint64_t sessions_total = 0;
  /// Transactions aborted by dead-peer cleanup (0 in-process).
  uint64_t orphan_aborts = 0;
};

/// Abstract client of the lock service.  All methods are Status-first
/// and mirror ConcurrentLockService's canonical outcomes; see the file
/// comment for the blocking model and the thread contract.
class LockClient {
 public:
  virtual ~LockClient() = default;

  /// Starts a transaction.  kResourceExhausted when admission control
  /// (or a draining daemon) sheds the Begin — retry after backoff.
  virtual Result<lock::TransactionId> Begin() = 0;

  /// Requests `mode` on `rid` and returns the immediate outcome without
  /// blocking.  On kBlocked, call Await(tid) (or poll State) to learn
  /// whether the wait ended in a grant or a victim abort.
  virtual Result<lock::RequestOutcome> Acquire(lock::TransactionId tid,
                                               lock::ResourceId rid,
                                               lock::LockMode mode) = 0;

  /// Blocks the *client* until a kBlocked transaction leaves the wait and
  /// returns its ConcurrentLockService::OnWaitEnd status: kOk when the
  /// lock was granted, kDeadlockVictim when it was aborted; at once for a
  /// transaction that is not blocked.  Neither implementation polls.
  virtual Status Await(lock::TransactionId tid) = 0;

  /// Commits and releases; wakes any waiter this unblocks.
  virtual Status Commit(lock::TransactionId tid) = 0;

  /// Aborts voluntarily and releases; wakes any waiter this unblocks.
  virtual Status Abort(lock::TransactionId tid) = 0;

  /// Snapshot of the transaction's state.
  virtual Result<txn::TxnState> State(lock::TransactionId tid) = 0;

  /// Pins the transaction's abort cost (ConcurrentLockService::SetCost).
  virtual Status SetCost(lock::TransactionId tid, double cost) = 0;

  /// Runs one detection-resolution pass now and returns its projection.
  virtual Result<DetectResult> Detect() = 0;

  /// True when the current wait-for state contains a cycle.
  virtual Result<bool> HasDeadlock() = 0;

  /// Renders a diagnostic view of the service state (ServiceView).
  virtual Result<std::string> View(ServiceView view) = 0;

  /// Service/session counters.
  virtual Result<ClientStats> Stats() = 0;
};

namespace txn {

/// LockClient over a ConcurrentLockService in this process.
class InProcessClient final : public LockClient {
 public:
  /// Wraps `service` (not owned; must outlive the client), in either
  /// detection mode.
  static Result<std::unique_ptr<InProcessClient>> Create(
      ConcurrentLockService* service);

  Result<lock::TransactionId> Begin() override;
  Result<lock::RequestOutcome> Acquire(lock::TransactionId tid,
                                       lock::ResourceId rid,
                                       lock::LockMode mode) override;
  Status Await(lock::TransactionId tid) override;
  Status Commit(lock::TransactionId tid) override;
  Status Abort(lock::TransactionId tid) override;
  Result<TxnState> State(lock::TransactionId tid) override;
  Status SetCost(lock::TransactionId tid, double cost) override;
  Result<DetectResult> Detect() override;
  Result<bool> HasDeadlock() override;
  Result<std::string> View(ServiceView view) override;
  Result<ClientStats> Stats() override;

 private:
  explicit InProcessClient(ConcurrentLockService* service)
      : service_(service) {}

  ConcurrentLockService* service_;
};

/// Builds a DetectResult projection from a full resolution report (shared
/// by InProcessClient and the daemon's Detect handler).
DetectResult ProjectReport(const core::ResolutionReport& report);

}  // namespace txn
}  // namespace twbg

#endif  // TWBG_TXN_LOCK_CLIENT_H_
