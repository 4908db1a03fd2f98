#pragma once
// Client library for the socket front end — the other half of the
// fault-tolerance story. The frontend classifies every way a conversation
// can end; the client maps each classification into the robustness
// taxonomy's retry table and acts on it, so a caller sees exactly the same
// decision surface as an in-process resilient_run: transient failures are
// retried with seeded exponential backoff (the SAME RetryPolicy::backoff
// arithmetic as the supervisor — bit-identical delay sequences for a given
// seed), deterministic refusals fail fast.
//
// One submit() is a sequence of attempts. Each attempt writes one kRequest
// frame and reads one kResponse frame under a deadline. It reuses a socket
// that a clean exchange left at a frame boundary (a kAccepted response that
// decoded) and connects only when none is idle. Every other ending closes
// its socket: a failed conversation leaves a stream in an unknowable state,
// and reconnecting is the only sound resync. The frontend serves any number
// of frames per connection, so a cache hit costs one round trip, not a
// connect, an accept and a close.
//
// A reused socket can be stale: its shard died or respawned at the same
// path, or its frontend drained and closed it. If the write fails with
// EPIPE/ECONNRESET, or the read ends in EOF or a reset, the attempt closes
// it and sends the same frame once down a fresh connection, within the
// same response deadline. That resend is not an attempt — attempts,
// backoffs and every classification see only the fresh connection's
// outcome. It also fires when the peer read the request and died mid-job,
// so it is sound only because a reduction request is idempotent. A torn
// response (EOF inside a frame) or a deadline is never resent. The outcome
// is classified from whichever layer refused first:
//
//   * transport never answered (connect refused, reset, torn response,
//     deadline)                    -> Diagnostic::kConnReset / kDeadline...
//   * the frontend refused        -> diagnose_frontend_status(status)
//   * the service answered        -> the supervised report rides through
//
// The chaos harness plugs in here: ClientOptions::fault lets one attempt
// sabotage ITSELF (torn frame, dribble, stall, garbage — NetFaultPlan),
// which is how the --net soak proves the retry loop carries a submission
// through any single network fault to a bit-equal certified answer. A
// fault-sabotaged attempt is always retried as transient, whatever the
// server answered: the injector corrupted the transport, so a clean retry
// is sound — while in production a kMalformedFrame refusal is FATAL (the
// client's own framing is broken; resending identical bytes cannot help).
// A sabotaged attempt always runs on a fresh socket and closes it.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "parallel/annotations.h"
#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/wire.h"

namespace pfact::serve {

struct ClientOptions {
  // Where to connect: a Unix socket path, or TCP to 127.0.0.1:tcp_port.
  std::string unix_path;
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  // Retry policy: attempts per submit and the seeded backoff between them,
  // mirroring the supervisor's arithmetic exactly.
  robustness::RetryPolicy retry;
  // Deadline for reading the response frame of one attempt.
  std::chrono::milliseconds response_deadline{10'000};
  // Sleeps backoff delays when set; null sleeps for real. Tests install a
  // recorder to assert the delay sequence without waiting it out.
  std::function<void(std::chrono::milliseconds)> sleeper;
  // Network chaos: sabotage attempt `fault.on_attempt` with this shape.
  NetFaultPlan fault;
};

struct ClientResult {
  // True iff a kAccepted response arrived and decoded.
  bool ok = false;
  // The frontend's classification of the LAST attempt's conversation (for
  // transport-level deaths where no response arrived, the client's own
  // inference: kConnReset or kDeadline).
  FrontendStatus status = FrontendStatus::kConnReset;
  // The same, mapped into the retry taxonomy (what drove retry/fail-fast).
  robustness::Diagnostic diagnostic = robustness::Diagnostic::kConnReset;
  robustness::FailureKind outcome = robustness::FailureKind::kTransient;
  // Wire-level verdict of the last attempt's response read.
  WireStatus wire = WireStatus::kOk;
  // Valid when a response frame arrived and decoded (ok or classified).
  FrontendResponse response;
  std::size_t attempts = 0;
  // The backoff slept before each retry, in order — bit-reproducible from
  // retry.jitter_seed.
  std::vector<std::chrono::milliseconds> backoffs;
};

class Client {
 public:
  // Ignores SIGPIPE process-wide (a vanished server must surface as a
  // classified EPIPE, never kill the client), same disposition the serve
  // layer's pools install.
  explicit Client(ClientOptions options);
  ~Client();  // closes the idle sockets

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Submits one task through the retry loop. Blocking; never throws. Safe
  // to call from many threads at once: each exchange owns its socket.
  ClientResult submit(const robustness::ReductionTask& task);

 private:
  struct Attempt {
    bool got_response = false;
    FrontendResponse response;
    WireStatus wire = WireStatus::kOk;
    FrontendStatus status = FrontendStatus::kConnReset;
    bool fault_injected = false;
  };

  // The most sockets kept idle. Below the Frontend's default
  // max_connections of 32, so a few pooled clients cannot fill its slots.
  static constexpr std::size_t kMaxIdle = 8;

  int connect_once();
  int take_idle();
  void keep_idle(int fd);
  Attempt exchange(int fd, const std::string& frame,
                   std::chrono::steady_clock::time_point deadline);
  void read_response(int fd, Attempt& a,
                     std::chrono::steady_clock::time_point deadline);
  Attempt run_attempt(const robustness::ReductionTask& task,
                      std::size_t attempt_no);

  ClientOptions options_;
  par::Mutex mu_;
  std::vector<int> idle_ PFACT_GUARDED_BY(mu_);  // at a frame boundary
};

}  // namespace pfact::serve
