// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "bench/scenarios.h"

#include "common/macros.h"

namespace twbg::bench {

using lock::LockMode;

namespace {

void MustAcquire(lock::LockManager& manager, lock::TransactionId tid,
                 lock::ResourceId rid, LockMode mode) {
  Result<lock::RequestOutcome> outcome = manager.Acquire(tid, rid, mode);
  TWBG_CHECK(outcome.ok());
}

}  // namespace

void BuildChain(lock::LockManager& manager, size_t n) {
  TWBG_CHECK(n >= 1);
  for (size_t i = 1; i <= n; ++i) {
    MustAcquire(manager, static_cast<lock::TransactionId>(i),
                static_cast<lock::ResourceId>(i), LockMode::kX);
  }
  for (size_t i = 2; i <= n; ++i) {
    MustAcquire(manager, static_cast<lock::TransactionId>(i),
                static_cast<lock::ResourceId>(i - 1), LockMode::kX);
  }
}

void BuildRing(lock::LockManager& manager, size_t n) {
  BuildChain(manager, n);
  MustAcquire(manager, 1, static_cast<lock::ResourceId>(n), LockMode::kX);
}

void BuildRings(lock::LockManager& manager, size_t k, size_t m) {
  TWBG_CHECK(m >= 2);
  for (size_t ring = 0; ring < k; ++ring) {
    const size_t txn_base = ring * m;
    const size_t rid_base = ring * m;
    for (size_t i = 1; i <= m; ++i) {
      MustAcquire(manager, static_cast<lock::TransactionId>(txn_base + i),
                  static_cast<lock::ResourceId>(rid_base + i), LockMode::kX);
    }
    for (size_t i = 2; i <= m; ++i) {
      MustAcquire(manager, static_cast<lock::TransactionId>(txn_base + i),
                  static_cast<lock::ResourceId>(rid_base + i - 1),
                  LockMode::kX);
    }
    MustAcquire(manager, static_cast<lock::TransactionId>(txn_base + 1),
                static_cast<lock::ResourceId>(rid_base + m), LockMode::kX);
  }
}

void BuildUpgradeCrowd(lock::LockManager& manager, size_t k,
                       lock::ResourceId rid) {
  TWBG_CHECK(k >= 2);
  for (size_t i = 1; i <= k; ++i) {
    MustAcquire(manager, static_cast<lock::TransactionId>(i), rid,
                LockMode::kIS);
  }
  for (size_t i = 1; i <= k; ++i) {
    MustAcquire(manager, static_cast<lock::TransactionId>(i), rid,
                LockMode::kX);
  }
}

void BuildQueueTail(lock::LockManager& manager, size_t q,
                    lock::ResourceId rid) {
  MustAcquire(manager, 1, rid, LockMode::kX);
  for (size_t i = 2; i <= q + 1; ++i) {
    MustAcquire(manager, static_cast<lock::TransactionId>(i), rid,
                LockMode::kX);
  }
}

SteadyState BuildSteadyState(const std::vector<lock::LockManager*>& managers,
                             size_t num_resources, size_t bulk) {
  TWBG_CHECK(num_resources >= 1);
  const auto acquire = [&](size_t tid, size_t rid, LockMode mode) {
    for (lock::LockManager* manager : managers) {
      MustAcquire(*manager, static_cast<lock::TransactionId>(tid),
                  static_cast<lock::ResourceId>(rid), mode);
    }
  };
  for (size_t b = 1; b <= bulk; ++b) {
    for (size_t r = 1; r <= num_resources; ++r) acquire(b, r, LockMode::kIS);
  }
  // Blocked X waiters on every 97th resource (they wait on the IS
  // holders forever; no cycle can form since holders never wait).
  const size_t num_waiters = (num_resources + 96) / 97;
  for (size_t w = 0; w < num_waiters; ++w) {
    acquire(bulk + 1 + w, w * 97 + 1, LockMode::kX);
  }
  SteadyState state;
  state.churn.reserve(num_resources);
  const size_t churn_base = bulk + num_waiters;
  for (size_t r = 1; r <= num_resources; ++r) {
    acquire(churn_base + r, r, LockMode::kIS);
    state.churn.push_back(static_cast<lock::TransactionId>(churn_base + r));
  }
  state.next_tid =
      static_cast<lock::TransactionId>(churn_base + num_resources + 1);
  return state;
}

void MutateSteadyState(lock::LockManager& manager, SteadyState& state,
                       lock::ResourceId rid) {
  TWBG_CHECK(rid >= 1 && rid <= state.churn.size());
  manager.ReleaseAll(state.churn[rid - 1]);
  MustAcquire(manager, state.next_tid, rid, LockMode::kIS);
  state.churn[rid - 1] = state.next_tid++;
}

}  // namespace twbg::bench
