#include "serve/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "obs/counters.h"
#include "obs/trace.h"

namespace pfact::serve {

namespace {

// Writes exactly [data, data+n), absorbing EINTR and partial writes. The
// verdicts are write_frame's: kConnReset when the peer is gone
// (EPIPE/ECONNRESET), kIoError when the fd broke otherwise.
WireStatus write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno == EPIPE || errno == ECONNRESET ? WireStatus::kConnReset
                                                   : WireStatus::kIoError;
    }
    off += static_cast<std::size_t>(w);
  }
  return WireStatus::kOk;
}

// Completes a connect() that a signal interrupted. POSIX leaves the attempt
// in flight after EINTR — the socket keeps connecting in the background —
// so the right move is to wait for writability and read the real verdict
// from SO_ERROR. Reporting the interruption itself as "refused" would turn
// every SIGCHLD burst from the shard router's reaper into a spurious
// kConnReset on an otherwise healthy connection.
bool finish_connect(int fd) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLOUT;
  for (;;) {
    const int pr = ::poll(&p, 1, 1000);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    break;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

FrontendStatus status_for_wire(WireStatus s) {
  // Transport verdicts collapse into the two client-inferable statuses: a
  // deadline is a deadline; everything else that stopped a response from
  // arriving intact reads as "the conversation was reset" — including a
  // desynchronized or corrupt response stream, where reconnecting is the
  // only sound recovery.
  return s == WireStatus::kTimeout ? FrontendStatus::kDeadline
                                   : FrontendStatus::kConnReset;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {
  // A server that hangs up mid-write must surface as a classified EPIPE,
  // never a SIGPIPE death — the same disposition the serve pools install.
  ::signal(SIGPIPE, SIG_IGN);
}

Client::~Client() {
  par::MutexLock lock(mu_);
  for (const int fd : idle_) ::close(fd);
}

int Client::take_idle() {
  par::MutexLock lock(mu_);
  if (idle_.empty()) return -1;
  const int fd = idle_.back();
  idle_.pop_back();
  return fd;
}

void Client::keep_idle(int fd) {
  {
    par::MutexLock lock(mu_);
    if (idle_.size() < kMaxIdle) {
      idle_.push_back(fd);
      return;
    }
  }
  ::close(fd);
}

int Client::connect_once() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) return -1;
    std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                options_.unix_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        !(errno == EINTR && finish_connect(fd))) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  if (options_.tcp) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        !(errno == EINTR && finish_connect(fd))) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  return -1;
}

// Reads and decodes one response frame into `a`; the caller owns fd.
void Client::read_response(int fd, Attempt& a,
                           std::chrono::steady_clock::time_point deadline) {
  FrameType type = FrameType::kRequest;
  std::string payload;
  a.wire = read_frame(fd, type, payload, deadline);
  if (a.wire != WireStatus::kOk) {
    a.status = status_for_wire(a.wire);
    return;
  }
  if (type != FrameType::kResponse ||
      !decode_response(payload, a.response)) {
    a.wire = WireStatus::kMalformed;
    a.status = FrontendStatus::kConnReset;  // desynced stream: reconnect
    return;
  }
  a.got_response = true;
  a.status = a.response.status;
}

// One unsabotaged conversation on fd. A socket left at a frame boundary (a
// kAccepted response that decoded) goes back to the idle list; any other
// ending closes it.
Client::Attempt Client::exchange(
    int fd, const std::string& frame,
    std::chrono::steady_clock::time_point deadline) {
  Attempt a;
  a.wire = write_all(fd, frame.data(), frame.size());
  if (a.wire == WireStatus::kOk) {
    read_response(fd, a, deadline);
  } else {
    a.status = FrontendStatus::kConnReset;
  }
  if (a.got_response && a.status == FrontendStatus::kAccepted) {
    keep_idle(fd);
  } else {
    ::close(fd);
  }
  return a;
}

Client::Attempt Client::run_attempt(const robustness::ReductionTask& task,
                                    std::size_t attempt_no) {
  PFACT_SPAN("serve.client");
  TaskRequest req;
  req.task = task;
  // The whole frame's bytes, not write_frame, so the fault injector can
  // tear, dribble and mangle them at byte granularity.
  const std::string frame = frame_bytes(FrameType::kRequest,
                                        encode_request(req));

  const NetFaultPlan& fault = options_.fault;
  const bool sabotage = fault.fault != NetFault::kNone &&
                        fault.on_attempt != 0 &&
                        attempt_no == fault.on_attempt;
  // One response deadline per attempt, however many sockets it takes.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.response_deadline;
  if (!sabotage) {
    // An idle socket first. It is stale (client.h) when the write found the
    // peer gone or the read ended in EOF or a reset. That covers a peer
    // that died before reading the request and one that died mid-job after
    // reading it; resending is sound in both cases only because a
    // reduction request is idempotent.
    const int idle = take_idle();
    if (idle >= 0) {
      Attempt a = exchange(idle, frame, deadline);
      if (a.wire != WireStatus::kEof && a.wire != WireStatus::kConnReset) {
        return a;
      }
      PFACT_COUNT(kClientStaleReconnects);
    }
  }

  Attempt a;
  const int fd = connect_once();
  if (fd < 0) {
    // Nobody listening (or refused): the transport-level transient.
    a.wire = WireStatus::kConnReset;
    a.status = FrontendStatus::kConnReset;
    return a;
  }
  if (!sabotage) return exchange(fd, frame, deadline);
  a.fault_injected = true;
  const std::uint64_t r = robustness::mix64(fault.seed, attempt_no);
  bool wrote_ok = true;
  switch (fault.fault) {
    case NetFault::kNone:  // unreachable: sabotage implies a shape
    case NetFault::kCount_:
      break;
    case NetFault::kTornFrame: {
      // A strict prefix, then vanish — the mid-request client death.
      const std::size_t cut = 1 + static_cast<std::size_t>(
                                      r % (frame.size() - 1));
      write_all(fd, frame.data(), cut);
      ::close(fd);
      a.wire = WireStatus::kConnReset;
      a.status = FrontendStatus::kConnReset;
      return a;
    }
    case NetFault::kMidFrameClose: {
      // Die INSIDE the 17-byte header: the server must not even have a
      // declared length to wait for.
      const std::size_t cut =
          1 + static_cast<std::size_t>(r % (kFrameHeaderBytes - 1));
      write_all(fd, frame.data(), cut);
      ::close(fd);
      a.wire = WireStatus::kConnReset;
      a.status = FrontendStatus::kConnReset;
      return a;
    }
    case NetFault::kDribble: {
      // The whole frame, one byte per write: a correct-but-slow client.
      // This shape must SUCCEED — it proves partial-read resumption.
      for (std::size_t i = 0; wrote_ok && i < frame.size(); ++i) {
        wrote_ok = write_all(fd, frame.data() + i, 1) == WireStatus::kOk;
        if (i % 64 == 63) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      break;
    }
    case NetFault::kStalledReader: {
      // Half a frame, then silence with the connection held open: the
      // slowloris. The server's read deadline must evict us.
      const std::size_t cut = kFrameHeaderBytes + (frame.size() -
                                                   kFrameHeaderBytes) / 2;
      write_all(fd, frame.data(), cut);
      std::this_thread::sleep_for(fault.stall);
      break;  // fall through to the read: expect kDeadline (or a close)
    }
    case NetFault::kGarbagePreamble: {
      // Junk where a frame should start: the protocol-confused client.
      std::string junk(16 + static_cast<std::size_t>(r % 32), '\0');
      for (std::size_t i = 0; i < junk.size(); ++i) {
        junk[i] = static_cast<char>(robustness::mix64(r, i) & 0xFF);
      }
      // Junk must not start with a valid magic byte sequence.
      junk[0] = static_cast<char>(~(kFrameMagic & 0xFF));
      write_all(fd, junk.data(), junk.size());
      break;  // expect a kMalformedFrame refusal
    }
  }
  if (!wrote_ok) {
    ::close(fd);
    a.wire = WireStatus::kConnReset;
    a.status = FrontendStatus::kConnReset;
    return a;
  }
  // A sabotaged write may stall (kStalledReader sleeps fault.stall), so its
  // read starts a deadline of its own.
  read_response(fd, a,
                std::chrono::steady_clock::now() + options_.response_deadline);
  ::close(fd);
  return a;
}

ClientResult Client::submit(const robustness::ReductionTask& task) {
  ClientResult result;
  const std::size_t max_attempts =
      options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
  for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    Attempt a = run_attempt(task, attempt);
    result.attempts = attempt;
    result.wire = a.wire;
    result.status = a.status;
    if (a.got_response) result.response = a.response;

    if (a.got_response && a.status == FrontendStatus::kAccepted) {
      result.ok = true;
      result.diagnostic = robustness::Diagnostic::kOk;
      result.outcome = robustness::FailureKind::kSuccess;
      return result;
    }

    result.diagnostic = diagnose_frontend_status(a.status);
    result.outcome = robustness::classify_diagnostic(result.diagnostic);
    // A self-sabotaged attempt is always worth a clean retry: the injector
    // corrupted the transport, not the request. Without injection the
    // classification governs — kMalformedFrame is kFatal and fails fast.
    const bool retryable =
        a.fault_injected ||
        result.outcome == robustness::FailureKind::kTransient;
    if (!retryable || attempt == max_attempts) return result;

    const auto delay = options_.retry.backoff(attempt);
    result.backoffs.push_back(delay);
    PFACT_COUNT(kClientRetries);
    if (options_.sleeper) {
      options_.sleeper(delay);
    } else if (delay.count() > 0) {
      std::this_thread::sleep_for(delay);
    }
  }
  return result;
}

}  // namespace pfact::serve
