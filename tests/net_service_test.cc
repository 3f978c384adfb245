// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// End-to-end tests of the network lock service: a real net::Server on an
// ephemeral port, driven by net::TcpClient (and raw sockets where the
// test needs to violate the protocol or pipeline requests).  Covers the
// session lifecycle, dead-peer cleanup releasing locks and unblocking
// waiters, graceful drain (no request silently dropped), the per-session
// in-flight cap, protocol-error handling, and the continuous detection
// policy behind both LockClient implementations.

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "net/tcp_client.h"
#include "txn/concurrent_service.h"
#include "txn/lock_client.h"

namespace twbg::net {
namespace {

using txn::ConcurrentLockService;
using txn::ConcurrentServiceOptions;
using txn::DetectionMode;
using txn::TxnState;

struct Harness {
  std::unique_ptr<ConcurrentLockService> service;
  std::unique_ptr<Server> server;

  uint16_t port() const { return server->port(); }
};

// Periodic detection with no detector thread: deadlocks stay put until a
// test calls Detect, which keeps the scenarios deterministic.
ConcurrentServiceOptions PeriodicOptions() {
  ConcurrentServiceOptions options;
  options.detection_mode = DetectionMode::kPeriodic;
  return options;
}

Harness StartServer(ServerOptions server_options = {},
                    ConcurrentServiceOptions service_options =
                        PeriodicOptions()) {
  Harness harness;
  auto service = ConcurrentLockService::Create(service_options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  harness.service = std::move(*service);
  server_options.port = 0;
  auto server = Server::Create(server_options, harness.service.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  harness.server = std::move(*server);
  Status started = harness.server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return harness;
}

std::unique_ptr<TcpClient> Connect(const Harness& harness) {
  ClientOptions options;
  options.port = harness.port();
  auto client = TcpClient::Create(options);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

TEST(ServerOptionsTest, ValidateRejectsOutOfDomain) {
  ServerOptions options;
  options.host = "";
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.worker_threads = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.worker_threads = 65;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.max_sessions = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.max_inflight_per_session = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.drain_deadline = std::chrono::milliseconds(-1);
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.retry_after = std::chrono::microseconds(-1);
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  EXPECT_TRUE(ServerOptions{}.Validate().ok());
}

TEST(ServerCreateTest, RejectsNullService) {
  EXPECT_TRUE(Server::Create({}, nullptr).status().IsInvalidArgument());
}

TEST(ClientOptionsTest, ValidateRejectsOutOfDomain) {
  ClientOptions options;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());  // port 0
  options.port = 1;
  options.host = "";
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  options = {};
  options.port = 1;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(NetServiceTest, SessionLifecycle) {
  Harness harness = StartServer();
  auto client = Connect(harness);
  ASSERT_TRUE(client->Ping().ok());

  auto tid = client->Begin();
  ASSERT_TRUE(tid.ok()) << tid.status().ToString();
  auto outcome = client->Acquire(*tid, 1, lock::LockMode::kX);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, lock::RequestOutcome::kGranted);
  EXPECT_TRUE(client->Await(*tid).ok());
  auto state = client->State(*tid);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxnState::kActive);
  EXPECT_TRUE(client->Commit(*tid).ok());
  EXPECT_TRUE(client->Commit(*tid).IsFailedPrecondition());

  // Errors carry the service's message across the wire.
  Status missing = client->Commit(99999);
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_active, 1u);
  EXPECT_EQ(stats->sessions_total, 1u);
}

TEST(NetServiceTest, ServerSideAwaitUnblocksOnGrant) {
  Harness harness = StartServer();
  auto holder = Connect(harness);
  auto waiter = Connect(harness);
  auto observer = Connect(harness);  // a second session awaiting the same

  auto h = holder->Begin();
  auto w = waiter->Begin();
  ASSERT_TRUE(h.ok() && w.ok());
  ASSERT_TRUE(holder->Acquire(*h, 1, lock::LockMode::kX).ok());
  auto outcome = waiter->Acquire(*w, 1, lock::LockMode::kS);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, lock::RequestOutcome::kBlocked);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(holder->Commit(*h).ok());
  });
  std::thread observing([&] { EXPECT_TRUE(observer->Await(*w).ok()); });
  // Await blocks on the daemon (session parked, no thread pinned) until
  // the commit hands the lock over; both parked sessions are answered.
  EXPECT_TRUE(waiter->Await(*w).ok());
  releaser.join();
  observing.join();
  EXPECT_TRUE(waiter->Commit(*w).ok());
}

TEST(NetServiceTest, DeadlockVictimSurfacesOverTheWire) {
  Harness harness = StartServer();
  auto c1 = Connect(harness);
  auto c2 = Connect(harness);

  auto t1 = c1->Begin();
  auto t2 = c2->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(c1->Acquire(*t1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(c2->Acquire(*t2, 2, lock::LockMode::kX).ok());
  EXPECT_EQ(*c1->Acquire(*t1, 2, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);
  EXPECT_EQ(*c2->Acquire(*t2, 1, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);

  auto deadlocked = c1->HasDeadlock();
  ASSERT_TRUE(deadlocked.ok());
  EXPECT_TRUE(*deadlocked);
  ASSERT_TRUE(c1->SetCost(*t1, 1.0).ok());
  ASSERT_TRUE(c2->SetCost(*t2, 10.0).ok());

  auto detect = c1->Detect();
  ASSERT_TRUE(detect.ok());
  ASSERT_EQ(detect->aborted.size(), 1u);
  EXPECT_EQ(detect->aborted[0], *t1);

  EXPECT_TRUE(c1->Await(*t1).IsDeadlockVictim());
  EXPECT_TRUE(c2->Await(*t2).ok());
  EXPECT_TRUE(c2->Commit(*t2).ok());
}

// The crossing pair under continuous detection: T2's request closes the
// cycle and is resolved inside that Acquire — no Detect call.  Both hold
// one lock (equal cost), so the older T1 is the victim and its release
// grants T2 the lock it asked for.
void ExpectCrossingResolvedInsideAcquire(LockClient& c1, LockClient& c2) {
  auto t1 = c1.Begin();
  auto t2 = c2.Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(c1.Acquire(*t1, 1, lock::LockMode::kX).ok());
  ASSERT_TRUE(c2.Acquire(*t2, 2, lock::LockMode::kX).ok());
  EXPECT_EQ(*c1.Acquire(*t1, 2, lock::LockMode::kX),
            lock::RequestOutcome::kBlocked);
  auto closing = c2.Acquire(*t2, 1, lock::LockMode::kX);
  ASSERT_TRUE(closing.ok()) << closing.status().ToString();
  EXPECT_EQ(*closing, lock::RequestOutcome::kGranted);

  EXPECT_EQ(*c1.State(*t1), TxnState::kAborted);
  EXPECT_EQ(*c2.State(*t2), TxnState::kActive);
  EXPECT_TRUE(c1.Await(*t1).IsDeadlockVictim());
  EXPECT_TRUE(c2.Commit(*t2).ok());
  auto stats = c2.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadlock_victims, 1u);
  EXPECT_EQ(stats->snapshot_epoch, 0u);  // no periodic pass ran
  EXPECT_EQ(stats->live_txns, 0u);
}

TEST(NetServiceTest, ContinuousEngineBehindBothClients) {
  auto service = ConcurrentLockService::Create(ConcurrentServiceOptions{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto in1 = txn::InProcessClient::Create(service->get());
  auto in2 = txn::InProcessClient::Create(service->get());
  ASSERT_TRUE(in1.ok() && in2.ok());
  ExpectCrossingResolvedInsideAcquire(**in1, **in2);

  Harness harness = StartServer({}, ConcurrentServiceOptions{});
  auto c1 = Connect(harness);
  auto c2 = Connect(harness);
  ExpectCrossingResolvedInsideAcquire(*c1, *c2);
}

TEST(NetServiceTest, AwaitAnsweredOnceWhenSessionCloses) {
  Harness harness = StartServer();
  auto holder = Connect(harness);
  auto h = holder->Begin();
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(holder->Acquire(*h, 1, lock::LockMode::kX).ok());
  {
    // The waiter's Await parks and is answered by its wait-end
    // completion; closing the session afterwards must not answer it again.
    auto waiter = Connect(harness);
    auto w = waiter->Begin();
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(*waiter->Acquire(*w, 1, lock::LockMode::kS),
              lock::RequestOutcome::kBlocked);
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_TRUE(holder->Commit(*h).ok());
    });
    EXPECT_TRUE(waiter->Await(*w).ok());
    releaser.join();
    EXPECT_TRUE(waiter->Commit(*w).ok());
  }
  // Wait for the reactor to retire the waiter's session.
  for (int i = 0; i < 200 && harness.server->stats().sessions_active != 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = harness.server->stats();
  ASSERT_EQ(stats.sessions_active, 1u);
  EXPECT_EQ(stats.requests, 7u);  // holder 3, waiter 4
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST(NetServiceTest, AwaitCompletionOutlivingTheServerIsHarmless) {
  Harness harness = StartServer();
  // Transactions begun beside the daemon: no session's cleanup ends them,
  // so the completion a parked Await registers outlives the server.
  const lock::TransactionId holder = *harness.service->Begin();
  const lock::TransactionId waiter = *harness.service->Begin();
  ASSERT_TRUE(
      harness.service->AcquireBlocking(holder, 1, lock::LockMode::kX).ok());
  ASSERT_EQ(*harness.service->AcquireAsync(waiter, 1, lock::LockMode::kS),
            lock::RequestOutcome::kBlocked);
  auto client = Connect(harness);
  std::thread awaiting([&] {
    // Answered by the session's cleanup when the server shuts down.
    EXPECT_TRUE(client->Await(waiter).IsDeadlockVictim());
  });
  while (harness.server->stats().requests == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // parked
  harness.server.reset();
  awaiting.join();
  // Ending the wait now runs that completion with no server behind it.
  EXPECT_TRUE(harness.service->Commit(holder).ok());
  EXPECT_EQ(*harness.service->State(waiter), TxnState::kActive);
}

TEST(NetServiceTest, DeadPeerAbortReleasesLocksAndUnblocksWaiter) {
  Harness harness = StartServer();
  auto waiter = Connect(harness);
  auto w = waiter->Begin();
  ASSERT_TRUE(w.ok());

  {
    // The doomed peer holds R1 and then vanishes without a Commit.
    auto doomed = Connect(harness);
    auto d = doomed->Begin();
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(doomed->Acquire(*d, 1, lock::LockMode::kX).ok());
    EXPECT_EQ(*waiter->Acquire(*w, 1, lock::LockMode::kX),
              lock::RequestOutcome::kBlocked);
    // ~TcpClient closes the socket: the daemon must abort the orphan.
  }

  // The orphan abort releases R1, which grants the waiter.
  EXPECT_TRUE(waiter->Await(*w).ok());
  EXPECT_TRUE(waiter->Commit(*w).ok());

  // The cleanup is visible in the counters once the reactor retires the
  // session (poll briefly — the close is asynchronous).
  for (int i = 0; i < 100; ++i) {
    auto stats = waiter->Stats();
    ASSERT_TRUE(stats.ok());
    if (stats->orphan_aborts == 1 && stats->sessions_active == 1) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "dead-peer cleanup never showed up in the stats";
}

TEST(NetServiceTest, GracefulDrainFinishesInFlightAndRejectsNew) {
  ServerOptions options;
  options.drain_deadline = std::chrono::milliseconds(2000);
  Harness harness = StartServer(options);
  auto client = Connect(harness);
  auto tid = client->Begin();
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(client->Acquire(*tid, 1, lock::LockMode::kX).ok());

  harness.server->BeginDrain();
  EXPECT_TRUE(harness.server->draining());

  // New work is shed with the wire-level retry-after...
  Status shed = client->Begin().status();
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed.ToString();
  EXPECT_GT(client->last_retry_after_us(), 0u);
  // ...but the in-flight transaction finishes cleanly.
  EXPECT_TRUE(client->Commit(*tid).ok());

  harness.server->Join();
  const ServerStats stats = harness.server->stats();
  EXPECT_EQ(stats.sessions_active, 0u);
  // Nothing was in flight at the deadline, so nothing was aborted.
  EXPECT_EQ(stats.orphan_aborts, 0u);
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST(NetServiceTest, DrainDeadlineAbortsStragglers) {
  ServerOptions options;
  options.drain_deadline = std::chrono::milliseconds(100);
  Harness harness = StartServer(options);
  auto client = Connect(harness);
  auto tid = client->Begin();
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(client->Acquire(*tid, 1, lock::LockMode::kX).ok());

  // The client never commits: the drain deadline must abort for it.
  harness.server->BeginDrain();
  harness.server->Join();
  const ServerStats stats = harness.server->stats();
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.orphan_aborts, 1u);
  EXPECT_EQ(harness.service->live_transactions(), 0u);
}

TEST(NetServiceTest, StopIsImmediate) {
  Harness harness = StartServer();
  auto client = Connect(harness);
  ASSERT_TRUE(client->Ping().ok());
  harness.server->Stop();
  harness.server->Join();
  EXPECT_EQ(harness.server->stats().sessions_active, 0u);
}

// Raw-socket helpers for the protocol-violation and pipelining tests.
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Reads until EOF, returning everything received.
std::string ReadToEof(int fd) {
  std::string all;
  char chunk[4096];
  while (true) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    all.append(chunk, static_cast<size_t>(n));
  }
  return all;
}

TEST(NetServiceTest, MalformedFrameGetsErrorResponseAndClose) {
  Harness harness = StartServer();
  const int fd = RawConnect(harness.port());

  // An oversized length announcement is an unrecoverable protocol error:
  // the daemon responds with a kPing-typed error frame and closes.
  const uint32_t length = kMaxFrameBytes + 1;
  std::string bytes(4, '\0');
  std::memcpy(bytes.data(), &length, sizeof(length));
  SendAll(fd, bytes);

  const std::string raw = ReadToEof(fd);  // server closed: EOF terminates
  close(fd);
  ASSERT_GE(raw.size(), 4u);
  FrameReader reader;
  reader.Append(raw.data(), raw.size());
  std::string payload;
  ASSERT_TRUE(reader.Next(&payload).ok());
  Response response;
  ASSERT_TRUE(DecodeResponse(payload, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);

  // The counter ticks and the daemon survives for other clients.
  auto client = Connect(harness);
  EXPECT_TRUE(client->Ping().ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(harness.server->stats().protocol_errors, 1u);
}

TEST(NetServiceTest, InflightCapShedsWithRetryAfter) {
  ServerOptions options;
  options.max_inflight_per_session = 4;
  options.retry_after = std::chrono::microseconds(750);
  Harness harness = StartServer(options);

  // Park the session on an Await (blocked transaction), then pipeline
  // more requests than the cap allows without reading responses.
  auto holder = Connect(harness);
  auto h = holder->Begin();
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(holder->Acquire(*h, 1, lock::LockMode::kX).ok());

  const int fd = RawConnect(harness.port());
  Request begin;
  begin.type = MsgType::kBegin;
  begin.req_id = 1;
  SendAll(fd, EncodeRequest(begin));
  Request acquire;
  acquire.type = MsgType::kAcquire;
  acquire.req_id = 2;
  acquire.tid = 2;  // the daemon assigns sequential ids: this is ours
  acquire.rid = 1;
  acquire.mode = lock::LockMode::kS;
  SendAll(fd, EncodeRequest(acquire));
  Request await;
  await.type = MsgType::kAwait;
  await.req_id = 3;
  await.tid = 2;
  SendAll(fd, EncodeRequest(await));
  std::string burst;
  for (uint64_t i = 0; i < 16; ++i) {
    Request ping;
    ping.type = MsgType::kPing;
    ping.req_id = 100 + i;
    burst += EncodeRequest(ping);
  }
  SendAll(fd, burst);

  // Give the daemon a moment to decode the burst, then unblock the
  // await so the session (and its queued pings) can finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(holder->Commit(*h).ok());

  // Collect responses until every request is answered.
  FrameReader reader;
  size_t answered = 0;
  size_t shed = 0;
  char chunk[4096];
  while (answered < 19) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "server closed before answering everything";
    reader.Append(chunk, static_cast<size_t>(n));
    std::string payload;
    while (reader.Next(&payload).ok()) {
      Response response;
      ASSERT_TRUE(DecodeResponse(payload, &response).ok());
      ++answered;
      if (response.code == StatusCode::kResourceExhausted) {
        ++shed;
        EXPECT_EQ(response.retry_after_us, 750u);
      }
    }
  }
  close(fd);
  // The burst overran the cap: some pings were shed, none went dark.
  EXPECT_GT(shed, 0u);
  EXPECT_GE(harness.server->stats().inflight_rejects, shed);
}

// A raw connection whose receive window is 4 KiB: the daemon's replies to
// it back up in the daemon instead of in this end's socket buffer.
int SmallWindowConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// Sends `count` pings on a non-blocking socket without reading a reply.
// Stops early once the socket stays unwritable for 300 ms — the daemon
// has stopped reading.  Returns the number of pings fully sent.
size_t PipelinePings(int fd, size_t count) {
  Request ping;
  ping.type = MsgType::kPing;
  const std::string frame = EncodeRequest(ping);
  std::string burst;
  for (int i = 0; i < 256; ++i) burst += frame;
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  size_t sent_bytes = 0;
  const size_t total_bytes = count * frame.size();
  while (sent_bytes < total_bytes) {
    const size_t offset = sent_bytes % burst.size();
    const size_t len =
        std::min(burst.size() - offset, total_bytes - sent_bytes);
    const ssize_t n = send(fd, burst.data() + offset, len, MSG_NOSIGNAL);
    if (n > 0) {
      sent_bytes += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    pollfd writable{fd, POLLOUT, 0};
    if (poll(&writable, 1, 300) == 0) break;
  }
  // A partly sent frame is left unfinished; only whole pings count.
  return sent_bytes / frame.size();
}

// Polls the daemon's request counter until it stops moving.
uint64_t SettledRequests(const Server& server) {
  uint64_t last = server.stats().requests;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now = server.stats().requests;
    if (now == last) return now;
    last = now;
  }
  return last;
}

TEST(NetServiceTest, PeerResetDoesNotRaiseSigpipe) {
  Harness harness = StartServer();
  // A flood of pings leaves the daemon reading requests with its replies
  // backed up; the client then resets the connection.  The daemon's reads
  // and writes on it must fail with ECONNRESET / EPIPE, never raise
  // SIGPIPE — whose default action ends this whole process.
  const int fd = SmallWindowConnect(harness.port());
  EXPECT_GT(PipelinePings(fd, 400000), 0u);
  // Reset once the daemon is reading the flood: it reads on to the end of
  // what arrived, gets ECONNRESET, and then writes its replies to a dead
  // connection.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harness.server->stats().requests == 0 &&
         std::chrono::steady_clock::now() < give_up) {
  }
  const linger reset{1, 0};  // close sends RST, not FIN
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  close(fd);

  // The dead session is retired only after its last-gasp flush.
  for (int i = 0; i < 1000 && harness.server->stats().sessions_active != 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(harness.server->stats().sessions_active, 0u);
  auto client = Connect(harness);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(NetServiceTest, UnreadRepliesStopTheDaemonReading) {
  Harness harness = StartServer();
  const int fd = SmallWindowConnect(harness.port());
  // A peer that sends without reading: once its unwritten replies pass
  // the bound, the daemon stops reading its socket, so the requests it
  // has taken in level off below what was sent instead of its memory
  // growing with the flood.
  const size_t sent = PipelinePings(fd, 400000);
  const uint64_t taken = SettledRequests(*harness.server);
  EXPECT_LT(taken, sent);

  // Reading the replies lets the daemon read, and answer, the rest.
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  FrameReader reader;
  size_t answered = 0;
  char chunk[64 * 1024];
  while (answered < sent) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "server closed after " << answered << " replies";
    reader.Append(chunk, static_cast<size_t>(n));
    std::string payload;
    while (reader.Next(&payload).ok()) ++answered;
  }
  close(fd);
  EXPECT_EQ(answered, sent);
  const ServerStats stats = harness.server->stats();
  EXPECT_EQ(stats.requests, sent);
  EXPECT_EQ(stats.requests, stats.responses);
}

TEST(NetServiceTest, ManyConcurrentSessions) {
  ServerOptions options;
  options.worker_threads = 4;
  Harness harness = StartServer(options);

  constexpr int kClients = 32;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&harness, &failures, i] {
      ClientOptions client_options;
      client_options.port = harness.port();
      auto client = TcpClient::Create(client_options);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < 10; ++round) {
        auto tid = (*client)->Begin();
        if (!tid.ok()) {
          ++failures;
          return;
        }
        const lock::ResourceId rid = 1 + ((i + round) % 8);
        auto outcome = (*client)->Acquire(*tid, rid, lock::LockMode::kX);
        if (!outcome.ok() ||
            (*outcome == lock::RequestOutcome::kBlocked &&
             !(*client)->Await(*tid).ok())) {
          // A detection pass may abort us; that's a legal outcome.
          continue;
        }
        if (!(*client)->Commit(*tid).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = harness.server->stats();
  EXPECT_EQ(stats.sessions_total, static_cast<uint64_t>(kClients));
  EXPECT_EQ(harness.service->live_transactions(), 0u);
}

}  // namespace
}  // namespace twbg::net
