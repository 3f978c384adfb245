// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Umbrella header: the public API of the twbg library in one include.
//
//   #include "twbg.h"
//
// Layers (see README.md and DESIGN.md):
//   * lock       — MGL lock modes, per-resource scheduling (FIFO + UPR),
//                  lock manager;
//   * core       — the paper's contribution: H/W-TWBG, TDR victim
//                  selection, periodic & continuous detectors, oracle;
//   * txn        — strict-2PL transactions, MGL hierarchies, thread-safe
//                  service wrapper, the LockClient abstraction;
//   * net        — the wire protocol, twbg-serverd's server core, and the
//                  TCP LockClient;
//   * robustness — deadlines, admission control / backpressure, retry
//                  backoff, deterministic fault injection;
//   * baselines  — comparison schemes behind DetectionStrategy;
//   * sim        — workload generator and simulator.
//
// Engine internals (the TST builder layers, scoped-TST experiments, the
// incremental ECR edge cache, the detection engine) are NOT part of the
// public surface; include their headers directly if you are extending the
// engine itself.

#ifndef TWBG_TWBG_H_
#define TWBG_TWBG_H_

#include "common/status.h"

#include "lock/lock_manager.h"
#include "lock/lock_mode.h"
#include "lock/lock_table.h"
#include "lock/resource_state.h"
#include "lock/types.h"

#include "core/continuous_detector.h"
#include "core/cost_table.h"
#include "core/detector.h"
#include "core/examples_catalog.h"
#include "core/oracle.h"
#include "core/periodic_detector.h"
#include "core/script.h"
#include "core/twbg.h"
#include "core/victim.h"

#include "txn/client_script.h"
#include "txn/concurrent_service.h"
#include "txn/lock_client.h"
#include "txn/mgl.h"
#include "txn/robustness/robustness.h"
#include "txn/transaction_manager.h"

#include "net/server.h"
#include "net/tcp_client.h"
#include "net/wire.h"

#include "baselines/factory.h"
#include "baselines/strategy.h"

#include "sim/simulator.h"
#include "sim/workload.h"

#endif  // TWBG_TWBG_H_
