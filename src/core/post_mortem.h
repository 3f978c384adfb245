// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Assembly of core::CyclePostMortem forensic records (the structs live in
// core/detector.h next to ResolutionReport, which carries them).  Called
// by the detection engine at the moment a cycle is resolved, while the
// members' wait state and the resource queues are still live.

#ifndef TWBG_CORE_POST_MORTEM_H_
#define TWBG_CORE_POST_MORTEM_H_

#include <cstdint>
#include <vector>

#include "core/detector.h"
#include "core/victim.h"
#include "lock/lock_manager.h"

namespace twbg::core {

/// Assembles the post-mortem for a cycle resolved at `views` (walk-order
/// edge views) where candidate `chosen` of `candidates` was applied.
/// Reads the members' live wait state from `manager` and snapshots the
/// cycle's resource queues; `now` is the logical resolution time.
CyclePostMortem BuildPostMortem(
    const std::vector<CycleEdgeView>& views,
    const std::vector<VictimCandidate>& candidates, size_t chosen,
    const lock::LockManager& manager, uint64_t now);

/// Generalized overload reading wait state and queue snapshots through
/// the detection-host lookup interfaces (sharded passes and epoch
/// mirrors, where no single LockManager owns the state).
CyclePostMortem BuildPostMortem(
    const std::vector<CycleEdgeView>& views,
    const std::vector<VictimCandidate>& candidates, size_t chosen,
    const ResourceLookup& resources, const WaitInfoLookup& waits,
    uint64_t now);

}  // namespace twbg::core

#endif  // TWBG_CORE_POST_MORTEM_H_
