// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "lock/lock_manager.h"

#include <algorithm>

#include "common/string_util.h"

namespace twbg::lock {

Result<RequestOutcome> LockManager::Acquire(TransactionId tid, ResourceId rid,
                                            LockMode mode) {
  if (tid == kInvalidTransaction) {
    return Status::InvalidArgument("invalid transaction id 0");
  }
  TxnLockInfo& info = *txns_.TryEmplace(tid).first;
  if (info.blocked_on.has_value()) {
    return Status::FailedPrecondition(common::Format(
        "T%u is blocked on R%u and cannot request R%u", tid,
        *info.blocked_on, rid));
  }
  ResourceState& state = table_.GetOrCreate(rid);
  const bool observing = obs::Enabled(bus_);
  // Uncontended fast path: a free resource grants any first request, with
  // no conversion to classify and no queue to inspect.  Outcome and event
  // are byte-identical to the general path below (kGranted; kLockGrant
  // with a = 0 — the resource had no holder, so this is neither a
  // conversion nor an already-held no-op).
  if (state.TryFastGrant(tid, mode)) {
    info.touched.Insert(rid);
    if (observing) {
      obs::Event event;
      event.kind = obs::EventKind::kLockGrant;
      event.tid = tid;
      event.rid = rid;
      event.mode = mode;
      bus_->Emit(event);
    }
    return RequestOutcome::kGranted;
  }
  // Conversion must be checked before Request: afterwards a blocked
  // requester may sit in the queue rather than the holder list.
  const bool conversion = observing && state.FindHolder(tid) != nullptr;
  Result<RequestOutcome> outcome = state.Request(tid, mode);
  if (!outcome.ok()) {
    table_.EraseIfFree(rid);
    return outcome;
  }
  info.touched.Insert(rid);
  if (*outcome == RequestOutcome::kBlocked) {
    info.blocked_on = rid;
    blocked_.insert(
        std::lower_bound(blocked_.begin(), blocked_.end(), tid), tid);
    const HolderEntry* h = state.FindHolder(tid);
    info.blocked_mode = h != nullptr ? h->blocked : mode;
    // Every block opens a fresh wait span — even without a bus, so span
    // ids stay comparable across runs that toggle observability.
    info.wait_span = next_wait_span_++;
    info.wait_started = bus_ != nullptr ? bus_->time() : 0;
    if (obs::Tracing(tracer_)) {
      tracer_->OpenWait(tid, info.wait_span, rid, info.blocked_mode);
    }
  }
  if (observing) {
    obs::Event event;
    event.tid = tid;
    event.rid = rid;
    event.mode = mode;
    switch (*outcome) {
      case RequestOutcome::kGranted:
      case RequestOutcome::kAlreadyHeld:
        event.kind = conversion ? obs::EventKind::kLockConvert
                                : obs::EventKind::kLockGrant;
        event.a = conversion ? 1 : (*outcome == RequestOutcome::kAlreadyHeld);
        break;
      case RequestOutcome::kBlocked:
        event.kind = conversion ? obs::EventKind::kLockConvert
                                : obs::EventKind::kLockBlock;
        event.a = conversion ? 0 : state.queue().size();
        event.span = info.wait_span;
        break;
    }
    bus_->Emit(event);
  }
  return outcome;
}

std::vector<TransactionId> LockManager::ReleaseAll(TransactionId tid) {
  TxnLockInfo* info = txns_.Find(tid);
  if (info == nullptr) return {};
  // A blocked transaction being fully released is an abort (commit is
  // impossible mid-wait under strict 2PL): its wait ends unsatisfied.
  if (obs::Tracing(tracer_) && info->blocked_on.has_value()) {
    tracer_->CloseWait(tid, obs::WaitOutcome::kAborted);
  }
  const bool observing = obs::Enabled(bus_);
  const size_t touched = info->touched.size();
  std::vector<TransactionId> granted;
  for (ResourceId rid : info->touched) {
    std::vector<TransactionId> g = ReleaseOn(tid, rid);
    granted.insert(granted.end(), g.begin(), g.end());
  }
  ClearBlocked(tid, *info);
  txns_.Erase(tid);
  if (observing) {
    obs::Event event;
    event.kind = obs::EventKind::kLockRelease;
    event.tid = tid;
    event.a = touched;
    event.b = granted.size();
    bus_->Emit(event);
  }
  return granted;
}

std::vector<TransactionId> LockManager::ReleaseOn(TransactionId tid,
                                                  ResourceId rid) {
  ResourceState* state = table_.FindMutable(rid);
  if (state == nullptr) return {};
  std::vector<TransactionId> granted = state->Remove(tid);
  if (obs::Enabled(bus_)) {
    for (TransactionId waiter : granted) {
      obs::Event wake;
      wake.kind = obs::EventKind::kLockWakeup;
      wake.tid = waiter;
      wake.rid = rid;
      wake.span = WaitSpan(waiter);
      bus_->Emit(wake);
    }
  }
  table_.EraseIfFree(rid);
  NoteGranted(granted);
  return granted;
}

void LockManager::Forget(TransactionId tid) {
  // A blocked transaction aborted through ReleaseOn (cross-shard release)
  // leaves the blocked set here.
  if (TxnLockInfo* info = txns_.Find(tid)) ClearBlocked(tid, *info);
  txns_.Erase(tid);
}

Result<std::vector<TransactionId>> LockManager::CancelWait(TransactionId tid) {
  TxnLockInfo* info = txns_.Find(tid);
  if (info == nullptr || !info->blocked_on.has_value()) {
    return Status::FailedPrecondition(
        common::Format("T%u is not blocked; nothing to cancel", tid));
  }
  const ResourceId rid = *info->blocked_on;
  ResourceState* state = table_.FindMutable(rid);
  if (state == nullptr) {
    return Status::Internal(common::Format(
        "T%u bookkept as blocked on R%u but the resource is free", tid, rid));
  }
  Result<std::vector<TransactionId>> granted = state->CancelRequest(tid);
  if (!granted.ok()) return granted.status();
  if (obs::Tracing(tracer_)) {
    tracer_->CloseWait(tid, obs::WaitOutcome::kCancelled);
  }
  // A cancelled queue member leaves the resource entirely; a cancelled
  // converter keeps holding it.
  if (!state->Involves(tid)) info->touched.Erase(rid);
  ClearBlocked(tid, *info);
  NoteGranted(*granted);
  if (obs::Enabled(bus_)) {
    for (TransactionId waiter : *granted) {
      obs::Event wake;
      wake.kind = obs::EventKind::kLockWakeup;
      wake.tid = waiter;
      wake.rid = rid;
      wake.span = WaitSpan(waiter);
      bus_->Emit(wake);
    }
  }
  table_.EraseIfFree(rid);
  return granted;
}

std::vector<TransactionId> LockManager::Reschedule(ResourceId rid) {
  ResourceState* state = table_.FindMutable(rid);
  if (state == nullptr) return {};
  std::vector<TransactionId> granted = state->Reschedule();
  NoteGranted(granted);
  if (obs::Enabled(bus_)) {
    for (TransactionId waiter : granted) {
      obs::Event wake;
      wake.kind = obs::EventKind::kLockWakeup;
      wake.tid = waiter;
      wake.rid = rid;
      // NoteGranted already ran, but wait_span is retained past wakeup,
      // so the span id still correlates with the waiter's kLockBlock.
      wake.span = WaitSpan(waiter);
      bus_->Emit(wake);
    }
  }
  return granted;
}

Status LockManager::ApplyTdr2(ResourceId rid, TransactionId junction) {
  ResourceState* state = table_.FindMutable(rid);
  if (state == nullptr) {
    return Status::NotFound(common::Format("R%u is not locked", rid));
  }
  Status status = state->ApplyTdr2(junction);
  if (status.ok() && obs::Enabled(bus_)) {
    obs::Event event;
    event.kind = obs::EventKind::kUprReposition;
    event.tid = junction;
    event.rid = rid;
    bus_->Emit(event);
  }
  return status;
}

bool LockManager::IsBlocked(TransactionId tid) const {
  const TxnLockInfo* info = Info(tid);
  return info != nullptr && info->blocked_on.has_value();
}

std::optional<ResourceId> LockManager::BlockedOn(TransactionId tid) const {
  const TxnLockInfo* info = Info(tid);
  return info != nullptr ? info->blocked_on : std::nullopt;
}

const TxnLockInfo* LockManager::Info(TransactionId tid) const {
  return txns_.Find(tid);
}

uint64_t LockManager::WaitSpan(TransactionId tid) const {
  const TxnLockInfo* info = Info(tid);
  return info != nullptr ? info->wait_span : 0;
}

uint64_t LockManager::WaitStarted(TransactionId tid) const {
  const TxnLockInfo* info = Info(tid);
  return info != nullptr ? info->wait_started : 0;
}

std::vector<TransactionId> LockManager::KnownTransactions() const {
  std::vector<TransactionId> out;
  out.reserve(txns_.size());
  for (const auto& entry : txns_) out.push_back(entry.key);
  std::sort(out.begin(), out.end());
  return out;
}

void LockManager::NoteGranted(const std::vector<TransactionId>& granted) {
  // The single choke point every grant path (ReleaseOn, CancelWait,
  // Reschedule) funnels through — wait spans close as granted here.
  const bool tracing = obs::Tracing(tracer_);
  for (TransactionId tid : granted) {
    if (tracing) tracer_->CloseWait(tid, obs::WaitOutcome::kGranted);
    if (TxnLockInfo* info = txns_.Find(tid)) ClearBlocked(tid, *info);
  }
}

void LockManager::ClearBlocked(TransactionId tid, TxnLockInfo& info) {
  if (!info.blocked_on.has_value()) return;
  info.blocked_on.reset();
  info.blocked_mode = LockMode::kNL;
  blocked_.erase(std::lower_bound(blocked_.begin(), blocked_.end(), tid));
}

Status LockManager::CheckInvariants(bool deep) const {
  TWBG_RETURN_IF_ERROR(table_.CheckInvariants());
  // {tid : blocked_on set}, ascending — what blocked_ must equal.
  std::vector<TransactionId> blocked;
  for (const TransactionId tid : KnownTransactions()) {
    const TxnLockInfo& info = *txns_.Find(tid);
    // blocked_on matches the table.
    if (info.blocked_on.has_value()) {
      blocked.push_back(tid);
      const ResourceState* state = table_.Find(*info.blocked_on);
      if (state == nullptr || !state->IsBlockedHere(tid)) {
        return Status::Internal(common::Format(
            "T%u claims blocked on R%u but the table disagrees", tid,
            info.blocked_on.value_or(0)));
      }
    }
    if (!deep) continue;
    // No blocked appearance outside blocked_on; touched covers appearances.
    // O(R) per transaction — gated behind `deep`.
    for (const auto& [rid, state] : table_) {
      const bool involved = state.Involves(tid);
      if (involved && !info.touched.Contains(rid)) {
        return Status::Internal(common::Format(
            "T%u appears on R%u but it is not in its touched set", tid, rid));
      }
      if (state.IsBlockedHere(tid) &&
          (!info.blocked_on.has_value() || *info.blocked_on != rid)) {
        return Status::Internal(common::Format(
            "T%u is blocked on R%u but bookkeeping says otherwise", tid, rid));
      }
    }
  }
  if (blocked != blocked_) {
    return Status::Internal(common::Format(
        "the blocked set (%zu tids) is not the %zu transactions with "
        "blocked_on set, ascending",
        blocked_.size(), blocked.size()));
  }
  if (!deep) return Status::OK();
  // Every table appearance belongs to a known transaction (Axiom 1 global:
  // a transaction waits on at most one resource).
  for (const auto& [rid, state] : table_) {
    for (const HolderEntry& h : state.holders()) {
      if (txns_.Find(h.tid) == nullptr) {
        return Status::Internal(
            common::Format("unknown holder T%u on R%u", h.tid, rid));
      }
    }
    for (const QueueEntry& q : state.queue()) {
      if (txns_.Find(q.tid) == nullptr) {
        return Status::Internal(
            common::Format("unknown waiter T%u on R%u", q.tid, rid));
      }
    }
  }
  return Status::OK();
}

}  // namespace twbg::lock
