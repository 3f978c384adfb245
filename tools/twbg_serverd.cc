// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// twbg-serverd — the network lock-service daemon: a periodic-engine
// ConcurrentLockService behind the net::Server TCP front end.
//
//   twbg-serverd --port=7762 --shards=8 --period-us=2000
//
// Signals: the first SIGTERM/SIGINT starts a graceful drain (stop
// accepting, reject new Begins, let in-flight transactions finish for
// --drain-ms, then abort stragglers); a second signal forces immediate
// shutdown.  Exit code 0 after a clean drain.
//
// See docs/SERVICE.md for the wire protocol and operational notes.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/server.h"
#include "txn/concurrent_service.h"

namespace {

constexpr const char* kUsage = R"(usage: twbg-serverd [options]

  --host=ADDR        listen address                    (default 127.0.0.1)
  --port=N           listen port; 0 picks ephemeral    (default 7762)
  --shards=N         lock-table shards, 1..64          (default 4)
  --period-us=N      detection period, microseconds    (default 2000)
  --workers=N        request worker threads            (default 2)
  --max-sessions=N   accepted-connection cap           (default 4096)
  --max-inflight=N   per-session unanswered-request cap (default 64)
  --drain-ms=N       graceful-drain deadline, ms       (default 2000)
  --help             print this and exit
)";

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

// One matcher per flag: returns the value part of --name=value.
const char* FlagValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return nullptr;
  return arg + len + 1;
}

}  // namespace

int main(int argc, char** argv) {
  using twbg::net::Server;
  using twbg::net::ServerOptions;
  using twbg::txn::ConcurrentLockService;
  using twbg::txn::ConcurrentServiceOptions;
  using twbg::txn::DetectionMode;

  ServerOptions server_options;
  server_options.port = 7762;
  ConcurrentServiceOptions service_options;
  service_options.detection_mode = DetectionMode::kPeriodic;
  service_options.num_shards = 4;
  service_options.detection_period = std::chrono::microseconds(2000);

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t n = 0;
    if (const char* v = FlagValue(arg, "--host")) {
      server_options.host = v;
    } else if (const char* v = FlagValue(arg, "--port")) {
      if (!ParseU64(v, &n) || n > 65535) goto bad_flag;
      server_options.port = static_cast<uint16_t>(n);
    } else if (const char* v = FlagValue(arg, "--shards")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      service_options.num_shards = n;
    } else if (const char* v = FlagValue(arg, "--period-us")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      service_options.detection_period = std::chrono::microseconds(n);
    } else if (const char* v = FlagValue(arg, "--workers")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      server_options.worker_threads = n;
    } else if (const char* v = FlagValue(arg, "--max-sessions")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      server_options.max_sessions = n;
    } else if (const char* v = FlagValue(arg, "--max-inflight")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      server_options.max_inflight_per_session = n;
    } else if (const char* v = FlagValue(arg, "--drain-ms")) {
      if (!ParseU64(v, &n)) goto bad_flag;
      server_options.drain_deadline = std::chrono::milliseconds(n);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n%s", arg, kUsage);
      return 2;
    }
    continue;
  bad_flag:
    std::fprintf(stderr, "bad value for '%s'\n%s", arg, kUsage);
    return 2;
  }

  // Block the shutdown signals in every thread the daemon will spawn,
  // then collect them synchronously with sigwait — no async handlers.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto service = ConcurrentLockService::Create(service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  auto server = Server::Create(server_options, service->get());
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return 1;
  }
  if (twbg::Status started = (*server)->Start(); !started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("twbg-serverd listening on %s:%u (shards=%zu period=%lldus)\n",
              server_options.host.c_str(), (*server)->port(),
              service_options.num_shards,
              static_cast<long long>(service_options.detection_period.count()));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("signal %d: draining (deadline %lldms)\n", sig,
              static_cast<long long>(server_options.drain_deadline.count()));
  std::fflush(stdout);
  (*server)->BeginDrain();

  // A second signal while draining forces an immediate stop.
  std::atomic<bool> drained{false};
  std::thread force([&] {
    timespec poll{0, 50 * 1000 * 1000};
    while (!drained.load(std::memory_order_acquire)) {
      siginfo_t info;
      if (sigtimedwait(&signals, &info, &poll) > 0) {
        std::fprintf(stderr, "second signal: forcing shutdown\n");
        (*server)->Stop();
        return;
      }
    }
  });
  (*server)->Join();
  drained.store(true, std::memory_order_release);
  force.join();

  const twbg::net::ServerStats stats = (*server)->stats();
  std::printf(
      "drained: %llu sessions served, %llu requests, %llu responses, "
      "%llu orphan aborts\n",
      static_cast<unsigned long long>(stats.sessions_total),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.orphan_aborts));
  return 0;
}
