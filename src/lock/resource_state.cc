// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "lock/resource_state.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"

namespace twbg::lock {

uint64_t NextStateVersion() {
  // Version stamps must stay process-unique even when shards mutate their
  // tables concurrently (txn::ConcurrentLockService).  Each thread reserves
  // a block of the shared counter and hands its stamps out locally, so the
  // shared cache line is written once per kBlock stamps, not on every
  // mutation.  Blocks are disjoint and stamps start at 1; relaxed ordering
  // is enough — uniqueness is the only property derived caches rely on.
  constexpr uint64_t kBlock = 1024;
  static std::atomic<uint64_t> counter{0};
  thread_local uint64_t next = 0;
  thread_local uint64_t end = 0;
  if (next == end) {
    next = counter.fetch_add(kBlock, std::memory_order_relaxed) + 1;
    end = next + kBlock;
  }
  return next++;
}

std::string HolderEntry::ToString() const {
  return common::Format("(T%u, %s, %s)", tid,
                        std::string(lock::ToString(granted)).c_str(),
                        std::string(lock::ToString(blocked)).c_str());
}

std::string QueueEntry::ToString() const {
  return common::Format("(T%u, %s)", tid,
                        std::string(lock::ToString(blocked)).c_str());
}

const HolderEntry* ResourceState::FindHolder(TransactionId tid) const {
  for (const HolderEntry& h : holders_) {
    if (h.tid == tid) return &h;
  }
  return nullptr;
}

bool ResourceState::InQueue(TransactionId tid) const {
  for (const QueueEntry& q : queue_) {
    if (q.tid == tid) return true;
  }
  return false;
}

bool ResourceState::Involves(TransactionId tid) const {
  return FindHolder(tid) != nullptr || InQueue(tid);
}

bool ResourceState::IsBlockedHere(TransactionId tid) const {
  const HolderEntry* h = FindHolder(tid);
  if (h != nullptr) return h->IsBlocked();
  return InQueue(tid);
}

size_t ResourceState::BlockedPrefixLength() const {
  size_t n = 0;
  while (n < holders_.size() && holders_[n].IsBlocked()) ++n;
  return n;
}

bool ResourceState::ConversionGrantable(size_t index) const {
  TWBG_DCHECK(index < holders_.size());
  TWBG_DCHECK(holders_[index].IsBlocked());
  const LockMode want = holders_[index].blocked;
  for (size_t j = 0; j < holders_.size(); ++j) {
    if (j == index) continue;
    if (!Compatible(want, holders_[j].granted)) return false;
  }
  return true;
}

size_t ResourceState::UprInsertPosition(const HolderEntry& entry) const {
  const size_t blocked_len = BlockedPrefixLength();
  // UPR-1: right before the first blocked entry whose blocked mode is
  // compatible with ours.
  for (size_t i = 0; i < blocked_len; ++i) {
    if (Compatible(entry.blocked, holders_[i].blocked)) return i;
  }
  // UPR-2: right before the first blocked entry that we could be scheduled
  // ahead of but not behind (Observation 3.1(2)): its granted mode is
  // compatible with our blocked mode while its blocked mode conflicts with
  // our granted mode.
  for (size_t i = 0; i < blocked_len; ++i) {
    if (Compatible(entry.blocked, holders_[i].granted) &&
        !Compatible(entry.granted, holders_[i].blocked)) {
      return i;
    }
  }
  // UPR-3: after all blocked entries, before all unblocked ones.
  return blocked_len;
}

LockMode ResourceState::GroupMode() const {
  LockMode gm = LockMode::kNL;
  for (const HolderEntry& h : holders_) gm = Convert(gm, h.granted);
  return gm;
}

LockMode ResourceState::AdmissionMode() const {
  return policy_ == AdmissionPolicy::kTotalMode ? total_mode_ : GroupMode();
}

void ResourceState::RecomputeTotalMode() {
  LockMode tm = LockMode::kNL;
  for (const HolderEntry& h : holders_) tm = Convert(tm, h.EffectiveMode());
  total_mode_ = tm;
}

Result<RequestOutcome> ResourceState::Request(TransactionId tid,
                                              LockMode mode) {
  if (tid == kInvalidTransaction) {
    return Status::InvalidArgument("invalid transaction id 0");
  }
  if (mode == LockMode::kNL) {
    return Status::InvalidArgument("cannot request NL");
  }

  // Conversion path: tid is already a holder.
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].tid != tid) continue;
    if (holders_[i].IsBlocked()) {
      return Status::FailedPrecondition(common::Format(
          "T%u is already blocked on R%u and cannot issue a request", tid,
          rid_));
    }
    const LockMode new_mode = Convert(holders_[i].granted, mode);
    if (new_mode == holders_[i].granted) {
      return RequestOutcome::kAlreadyHeld;  // already covered; no-op
    }
    bool grantable = true;
    for (size_t j = 0; j < holders_.size(); ++j) {
      if (j != i && !Compatible(new_mode, holders_[j].granted)) {
        grantable = false;
        break;
      }
    }
    total_mode_ = Convert(total_mode_, mode);
    BumpVersion();
    if (grantable) {
      holders_[i].granted = new_mode;
      return RequestOutcome::kGranted;
    }
    // Block the conversion and reposition the entry per UPR.
    HolderEntry entry = holders_[i];
    entry.blocked = new_mode;
    holders_.erase(holders_.begin() + static_cast<ptrdiff_t>(i));
    const size_t pos = UprInsertPosition(entry);
    holders_.insert(holders_.begin() + static_cast<ptrdiff_t>(pos), entry);
    return RequestOutcome::kBlocked;
  }

  if (InQueue(tid)) {
    return Status::FailedPrecondition(common::Format(
        "T%u is already waiting in the queue of R%u", tid, rid_));
  }

  // New-requestor path: FIFO — an occupied queue blocks regardless of
  // compatibility.
  BumpVersion();
  if (queue_.empty() && Compatible(mode, AdmissionMode())) {
    holders_.push_back(HolderEntry{tid, mode, LockMode::kNL});
    total_mode_ = Convert(total_mode_, mode);
    return RequestOutcome::kGranted;
  }
  queue_.push_back(QueueEntry{tid, mode});
  return RequestOutcome::kBlocked;
}

std::vector<TransactionId> ResourceState::Remove(TransactionId tid) {
  bool changed = false;
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].tid == tid) {
      holders_.erase(holders_.begin() + static_cast<ptrdiff_t>(i));
      changed = true;
      break;
    }
  }
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].tid == tid) {
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
      changed = true;
      break;
    }
  }
  if (!changed) return {};
  BumpVersion();
  RecomputeTotalMode();
  return Reschedule();
}

Result<std::vector<TransactionId>> ResourceState::CancelRequest(
    TransactionId tid) {
  // Blocked-converter path: drop the pending conversion, keep the grant.
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].tid != tid) continue;
    if (!holders_[i].IsBlocked()) {
      return Status::FailedPrecondition(common::Format(
          "T%u holds R%u but has no blocked request to cancel", tid, rid_));
    }
    HolderEntry entry = holders_[i];
    entry.blocked = LockMode::kNL;
    holders_.erase(holders_.begin() + static_cast<ptrdiff_t>(i));
    // Re-insert as the first unblocked entry so I1 (blocked prefix) holds.
    const size_t pos = BlockedPrefixLength();
    holders_.insert(holders_.begin() + static_cast<ptrdiff_t>(pos), entry);
    BumpVersion();
    // Request() folded the blocked mode into tm when it blocked the
    // conversion; shrink tm back to the surviving effective modes.
    RecomputeTotalMode();
    return Reschedule();
  }

  // Queue-member path.
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].tid != tid) continue;
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
    BumpVersion();
    // Deleting a queue member can expose a grantable front (I4).
    return Reschedule();
  }

  return Status::FailedPrecondition(
      common::Format("T%u is not blocked on R%u", tid, rid_));
}

std::vector<TransactionId> ResourceState::Reschedule() {
  std::vector<TransactionId> granted;

  // Holder pass: grant blocked conversions from the front while possible.
  // Blocked entries form a prefix (I1); Theorem 3.1 lets us stop at the
  // first non-grantable one.
  while (!holders_.empty() && holders_.front().IsBlocked() &&
         ConversionGrantable(0)) {
    HolderEntry entry = holders_.front();
    holders_.erase(holders_.begin());
    entry.granted = entry.blocked;
    entry.blocked = LockMode::kNL;
    holders_.push_back(entry);  // newly granted go after the blocked ones
    granted.push_back(entry.tid);
    // tm is unchanged: it already folded the blocked mode in.
  }

  // Queue pass: admit FIFO while the front is compatible with the
  // admission mode (tm; group mode under the ablation policy).
  // Admitted members form a prefix; count it first and shift the queue
  // once, instead of paying one front-erase shift per grant.
  size_t admitted = 0;
  while (admitted < queue_.size() &&
         Compatible(queue_[admitted].blocked, AdmissionMode())) {
    const QueueEntry& q = queue_[admitted];
    holders_.push_back(HolderEntry{q.tid, q.blocked, LockMode::kNL});
    total_mode_ = Convert(total_mode_, q.blocked);
    granted.push_back(q.tid);
    ++admitted;
  }
  if (admitted > 0) queue_.erase(queue_.begin(), queue_.begin() + admitted);

  if (!granted.empty()) BumpVersion();
  return granted;
}

Result<ResourceState::AvSt> ResourceState::ComputeAvSt(
    TransactionId junction) const {
  size_t end = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].tid == junction) {
      end = i;
      break;
    }
  }
  if (end == queue_.size()) {
    return Status::NotFound(common::Format(
        "T%u is not in the queue of R%u", junction, rid_));
  }
  if (!Compatible(queue_[end].blocked, AdmissionMode())) {
    return Status::FailedPrecondition(common::Format(
        "TDR-2 inapplicable: blocked mode of T%u conflicts with tm of R%u",
        junction, rid_));
  }
  AvSt result;
  for (size_t i = 0; i <= end; ++i) {
    if (Compatible(queue_[i].blocked, AdmissionMode())) {
      result.av.push_back(queue_[i]);
    } else {
      result.st.push_back(queue_[i]);
    }
  }
  return result;
}

Status ResourceState::ApplyTdr2(TransactionId junction) {
  // Inline validation (the same preconditions ComputeAvSt checks) so the
  // apply path allocates nothing.
  size_t end = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].tid == junction) {
      end = i;
      break;
    }
  }
  if (end == queue_.size()) {
    return Status::NotFound(common::Format(
        "T%u is not in the queue of R%u", junction, rid_));
  }
  if (!Compatible(queue_[end].blocked, AdmissionMode())) {
    return Status::FailedPrecondition(common::Format(
        "TDR-2 inapplicable: blocked mode of T%u conflicts with tm of R%u",
        junction, rid_));
  }
  // Reorder the prefix [0, end] to AV then ST in place (the suffix is
  // untouched): a stable insertion pass that rotates each AV member left
  // past the ST members ahead of it.  No allocation; quadratic only in
  // the prefix length, which Lemma 4.1 keeps short in practice.
  size_t insert_at = 0;
  for (size_t i = 0; i <= end; ++i) {
    if (!Compatible(queue_[i].blocked, AdmissionMode())) continue;
    const QueueEntry q = queue_[i];
    for (size_t j = i; j > insert_at; --j) queue_[j] = queue_[j - 1];
    queue_[insert_at++] = q;
  }
  BumpVersion();
  return Status::OK();
}

Status ResourceState::CheckInvariants() const {
  // I1: blocked prefix.
  bool seen_unblocked = false;
  for (const HolderEntry& h : holders_) {
    if (h.IsBlocked() && seen_unblocked) {
      return Status::Internal(common::Format(
          "R%u: blocked holder T%u after an unblocked one", rid_, h.tid));
    }
    if (!h.IsBlocked()) seen_unblocked = true;
  }
  // I2: tm is the fold of effective modes.
  LockMode tm = LockMode::kNL;
  for (const HolderEntry& h : holders_) tm = Convert(tm, h.EffectiveMode());
  if (tm != total_mode_) {
    return Status::Internal(
        common::Format("R%u: stale total mode (stored %s, computed %s)", rid_,
                       std::string(lock::ToString(total_mode_)).c_str(),
                       std::string(lock::ToString(tm)).c_str()));
  }
  // I3: no blocked conversion is grantable at rest.
  for (size_t i = 0; i < holders_.size(); ++i) {
    if (holders_[i].IsBlocked() && ConversionGrantable(i)) {
      return Status::Internal(common::Format(
          "R%u: blocked conversion of T%u is grantable", rid_,
          holders_[i].tid));
    }
    if (holders_[i].IsBlocked() &&
        holders_[i].blocked == holders_[i].granted) {
      return Status::Internal(common::Format(
          "R%u: vacuous conversion for T%u", rid_, holders_[i].tid));
    }
  }
  // I4: a non-empty queue's front conflicts with the admission mode.
  if (!queue_.empty() && Compatible(queue_.front().blocked, AdmissionMode())) {
    return Status::Internal(common::Format(
        "R%u: grantable queue front T%u", rid_, queue_.front().tid));
  }
  // I5: uniqueness.
  for (size_t i = 0; i < holders_.size(); ++i) {
    for (size_t j = i + 1; j < holders_.size(); ++j) {
      if (holders_[i].tid == holders_[j].tid) {
        return Status::Internal(common::Format(
            "R%u: duplicate holder T%u", rid_, holders_[i].tid));
      }
    }
    if (InQueue(holders_[i].tid)) {
      return Status::Internal(common::Format(
          "R%u: T%u both holds and queues", rid_, holders_[i].tid));
    }
  }
  for (size_t i = 0; i < queue_.size(); ++i) {
    for (size_t j = i + 1; j < queue_.size(); ++j) {
      if (queue_[i].tid == queue_[j].tid) {
        return Status::Internal(common::Format(
            "R%u: duplicate queue member T%u", rid_, queue_[i].tid));
      }
    }
    if (queue_[i].blocked == LockMode::kNL) {
      return Status::Internal(
          common::Format("R%u: NL queue entry for T%u", rid_, queue_[i].tid));
    }
  }
  return Status::OK();
}

std::string ResourceState::ToString() const {
  std::string out = common::Format(
      "R%u(%s): Holder(", rid_, std::string(lock::ToString(total_mode_)).c_str());
  std::vector<std::string> parts;
  parts.reserve(holders_.size());
  for (const HolderEntry& h : holders_) parts.push_back(h.ToString());
  out += common::Join(parts, " ");
  out += ") Queue(";
  parts.clear();
  for (const QueueEntry& q : queue_) parts.push_back(q.ToString());
  out += common::Join(parts, " ");
  out += ")";
  return out;
}

}  // namespace twbg::lock
