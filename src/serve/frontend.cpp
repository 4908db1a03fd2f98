#include "serve/frontend.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "robustness/checkpoint.h"

namespace pfact::serve {

namespace {

using robustness::detail::ByteReader;
using robustness::detail::ByteWriter;

// SIGTERM drain registry. The handler may only touch async-signal-safe
// state: a lock-free flag plus a fixed array of lock-free atomics holding
// each live Frontend's wake-pipe write end. Slots are claimed by CAS in the
// constructor and released in the destructor.
constexpr std::size_t kMaxFrontends = 16;
std::atomic<bool> g_sigterm_drain{false};
std::atomic<int> g_wake_slots[kMaxFrontends] = {};
std::atomic<bool> g_slots_initialized{false};

void init_slots_once() {
  bool expected = false;
  if (g_slots_initialized.compare_exchange_strong(expected, true)) {
    for (std::atomic<int>& slot : g_wake_slots) slot.store(-1);
  }
}

extern "C" void pfact_frontend_sigterm(int) {
  g_sigterm_drain.store(true, std::memory_order_relaxed);
  for (std::atomic<int>& slot : g_wake_slots) {
    const int fd = slot.load(std::memory_order_relaxed);
    if (fd >= 0) {
      const ssize_t ignored = ::write(fd, "t", 1);
      (void)ignored;  // a full wake pipe still wakes
    }
  }
}

bool would_block(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

// Closing a socket that still holds unread input turns the close into a
// reset (Linux sets the peer's sk_err to ECONNRESET), which would destroy a
// response the peer has not read yet — an overload shed, for example, closes
// before ever reading the request it refused. Drain whatever already arrived
// (the fd is non-blocking, so this never waits) so the refusal frame
// survives to be read.
void drain_and_close(int fd) {
  char buf[4096];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
}

}  // namespace

// --- response codec ---------------------------------------------------------

std::string encode_response(const FrontendResponse& resp) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(resp.status));
  w.put_u32(static_cast<std::uint32_t>(resp.admission));
  w.put_u8(resp.from_cache ? 1 : 0);
  w.put_u8(resp.certified ? 1 : 0);
  w.put_u8(resp.value ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(resp.certified_by));
  w.put_string(encode_result(resp.report));
  return w.take();
}

bool decode_response(std::string_view payload, FrontendResponse& out) {
  ByteReader r(payload);
  FrontendResponse resp;
  const std::uint32_t status = r.get_u32();
  // Bounds track the LAST enumerator of each taxonomy (append-only).
  if (status > static_cast<std::uint32_t>(FrontendStatus::kDraining))
    return false;
  resp.status = static_cast<FrontendStatus>(status);
  const std::uint32_t admission = r.get_u32();
  if (admission > static_cast<std::uint32_t>(Admission::kShedShutdown))
    return false;
  resp.admission = static_cast<Admission>(admission);
  resp.from_cache = r.get_u8() != 0;
  resp.certified = r.get_u8() != 0;
  resp.value = r.get_u8() != 0;
  const std::uint32_t substrate = r.get_u32();
  if (substrate > static_cast<std::uint32_t>(robustness::Substrate::kRational))
    return false;
  resp.certified_by = static_cast<robustness::Substrate>(substrate);
  const std::string report = r.get_string();
  if (!r.ok() || !r.exhausted()) return false;
  if (!decode_result(report, resp.report)) return false;
  out = std::move(resp);
  return true;
}

// --- per-connection state machine -------------------------------------------

struct Frontend::Conn {
  enum class Phase {
    kHeader,   // reassembling the 17-byte frame header
    kPayload,  // reassembling the declared payload
    kService,  // request admitted; waiting on the dispatcher
    kWrite,    // draining a queued response frame
    kLinger,   // refusal delivered; discarding input until the peer closes
               // (closing with unread input would reset the peer and destroy
               // the very response we just wrote)
  };

  int fd = -1;
  Phase phase = Phase::kHeader;
  std::string inbuf;            // header bytes, then payload bytes
  std::uint8_t frame_type = 0;
  std::uint64_t frame_len = 0;
  std::uint32_t frame_crc = 0;
  std::string outbuf;           // one fully framed response
  std::size_t out_off = 0;
  bool close_after_write = false;
  // Active read- or write-deadline; time_point{} = none armed. Read
  // deadlines arm at the FIRST byte of a frame (an idle connection may wait
  // forever; a started frame may not), write deadlines when a response is
  // queued.
  std::chrono::steady_clock::time_point deadline{};
  std::shared_ptr<ReductionService::Pending> pending;
};

// --- construction / teardown ------------------------------------------------

Frontend::Frontend(ReductionService& service, FrontendOptions options)
    : service_(service), options_(std::move(options)) {
  init_slots_once();

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() < sizeof(addr.sun_path)) {
      std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                  options_.unix_path.size() + 1);
      const int fd =
          ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd >= 0) {
        ::unlink(options_.unix_path.c_str());  // stale predecessor socket
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0 &&
            ::listen(fd, 128) == 0) {
          unix_fd_ = fd;
        } else {
          ::close(fd);
        }
      }
    }
  }

  if (options_.tcp) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
      addr.sin_port = htons(options_.tcp_port);
      sockaddr_in bound{};
      socklen_t bound_len = sizeof(bound);
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(fd, 128) == 0 &&
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                        &bound_len) == 0) {
        tcp_fd_ = fd;
        tcp_port_ = ntohs(bound.sin_port);
      } else {
        ::close(fd);
      }
    }
  }

  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    par::MutexLock lock(mu_);
    drained_ = true;  // nothing bound; nothing will ever run
    return;
  }

  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    wake_fds_[0] = wake_fds_[1] = -1;
  }
  // Claim a SIGTERM wake slot so install_sigterm_drain can reach the loop.
  if (wake_fds_[1] >= 0) {
    for (std::atomic<int>& slot : g_wake_slots) {
      int expected = -1;
      if (slot.compare_exchange_strong(expected, wake_fds_[1])) break;
    }
  }

  loop_ = std::thread([this] { event_loop(); });
}

Frontend::~Frontend() {
  begin_drain();
  if (loop_.joinable()) loop_.join();
  if (wake_fds_[1] >= 0) {
    for (std::atomic<int>& slot : g_wake_slots) {
      int expected = wake_fds_[1];
      if (slot.compare_exchange_strong(expected, -1)) break;
    }
  }
  for (int fd : {unix_fd_, tcp_fd_, wake_fds_[0], wake_fds_[1]}) {
    if (fd >= 0) ::close(fd);
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

bool Frontend::running() const { return unix_fd_ >= 0 || tcp_fd_ >= 0; }

void Frontend::begin_drain() {
  {
    par::MutexLock lock(mu_);
    if (draining_) return;
    draining_ = true;
  }
  wake();
}

bool Frontend::drained() const {
  par::MutexLock lock(mu_);
  return drained_;
}

void Frontend::reset_sigterm_for_testing() {
  g_sigterm_drain.store(false, std::memory_order_relaxed);
}

void Frontend::install_sigterm_drain() {
  init_slots_once();
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = pfact_frontend_sigterm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
}

Frontend::Stats Frontend::stats() const {
  par::MutexLock lock(mu_);
  return stats_;
}

void Frontend::wake() {
  if (wake_fds_[1] >= 0) {
    const ssize_t ignored = ::write(wake_fds_[1], "w", 1);
    (void)ignored;  // EAGAIN = pipe already holds a wakeup
  }
}

void Frontend::record_end(FrontendStatus status) {
  obs::bump(frontend_status_counter(status));
  par::MutexLock lock(mu_);
  ++stats_.by_status[static_cast<std::size_t>(status)];
}

// --- the event loop ---------------------------------------------------------

void Frontend::event_loop() {
  bool listeners_open = true;
  for (;;) {
    bool draining;
    {
      par::MutexLock lock(mu_);
      draining = draining_;
    }
    if (g_sigterm_drain.load(std::memory_order_relaxed) && !draining) {
      begin_drain();
      draining = true;
    }
    if (draining && listeners_open) {
      // Stop accepting: close the doors, keep serving who is inside. A
      // client whose connect already completed sits in the listen backlog
      // and may have written a request; accept it first, or it would wait
      // out its deadline on a connection nobody ever reads.
      if (unix_fd_ >= 0) accept_ready(unix_fd_);
      if (tcp_fd_ >= 0) accept_ready(tcp_fd_);
      if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
      if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
      listeners_open = false;
      // Idle connections (no frame started) have nothing in flight: close.
      // "Idle" must consult the kernel buffer, not just inbuf — a client
      // that wrote the start of a frame just before the drain began has a
      // request in flight even though the loop has not read a byte of it
      // yet, and it is owed a kDraining answer, not a silent close.
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& c = **it;
        char probe = 0;
        const bool pending_bytes =
            ::recv(c.fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
        if (c.phase == Conn::Phase::kHeader && c.inbuf.empty() &&
            !pending_bytes) {
          drain_and_close(c.fd);
          {
            par::MutexLock lock(mu_);
            ++stats_.clean_closes;
          }
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (draining && conns_.empty()) break;

    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 3);
    const std::size_t wake_idx = fds.size();
    if (wake_fds_[0] >= 0) fds.push_back({wake_fds_[0], POLLIN, 0});
    std::size_t unix_idx = SIZE_MAX, tcp_idx = SIZE_MAX;
    if (listeners_open && unix_fd_ >= 0) {
      unix_idx = fds.size();
      fds.push_back({unix_fd_, POLLIN, 0});
    }
    if (listeners_open && tcp_fd_ >= 0) {
      tcp_idx = fds.size();
      fds.push_back({tcp_fd_, POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    for (const auto& c : conns_) {
      short events = 0;
      switch (c->phase) {
        case Conn::Phase::kHeader:
        case Conn::Phase::kPayload:
        case Conn::Phase::kLinger: events = POLLIN; break;
        case Conn::Phase::kService: events = 0; break;  // POLLHUP still shows
        case Conn::Phase::kWrite: events = POLLOUT; break;
      }
      fds.push_back({c->fd, events, 0});
    }

    // Timeout: the nearest armed per-connection deadline.
    int timeout_ms = -1;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& c : conns_) {
      if (c->deadline == std::chrono::steady_clock::time_point{}) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            c->deadline - now)
                            .count() +
                        1;
      const int ms = left < 1 ? 1 : (left > 60'000 ? 60'000
                                                   : static_cast<int>(left));
      if (timeout_ms < 0 || ms < timeout_ms) timeout_ms = ms;
    }

    const int pr = ::poll(fds.data(), fds.size(), timeout_ms);
    if (pr < 0 && errno != EINTR) break;  // poll itself failing is terminal

    if (wake_fds_[0] >= 0 && (fds[wake_idx].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (unix_idx != SIZE_MAX && (fds[unix_idx].revents & POLLIN) != 0) {
      accept_ready(unix_fd_);
    }
    if (tcp_idx != SIZE_MAX && (fds[tcp_idx].revents & POLLIN) != 0) {
      accept_ready(tcp_fd_);
    }

    const auto after_poll = std::chrono::steady_clock::now();
    // `src` walks the pollfd snapshot in the order conns_ had at poll time;
    // erasing from conns_ shifts ITS indices but must not shift which
    // revents a surviving connection is matched with.
    std::size_t src = conn_base;
    for (std::size_t i = 0; i < conns_.size(); ++src) {
      Conn& c = *conns_[i];
      const short rev = src < fds.size() ? fds[src].revents : 0;
      bool alive = true;
      if (c.phase == Conn::Phase::kLinger &&
          (rev & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        // Discard input until the peer hangs up; the conversation's status
        // was recorded when its refusal was queued.
        alive = conn_lingering(c);
      } else if ((rev & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                 c.phase == Conn::Phase::kService) {
        // The peer vanished while its job was in flight: nobody is left to
        // read the answer. (Read/write phases route hangups through their
        // own paths below — a POLLHUP may still carry final readable bytes,
        // which must be consumed before EOF can be classified.)
        record_end(FrontendStatus::kConnReset);
        alive = false;
      } else if ((rev & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                 (c.phase == Conn::Phase::kHeader ||
                  c.phase == Conn::Phase::kPayload)) {
        alive = conn_readable(c);
      } else if ((rev & (POLLOUT | POLLERR | POLLHUP | POLLNVAL)) != 0 &&
                 c.phase == Conn::Phase::kWrite) {
        alive = conn_writable(c);
      }
      if (alive && c.phase == Conn::Phase::kService) harvest_resolved(c);
      if (alive) alive = check_deadlines(c, after_poll);
      if (!alive) {
        drain_and_close(c.fd);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  par::MutexLock lock(mu_);
  drained_ = true;
}

void Frontend::accept_ready(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener is shutting down
    }
    PFACT_COUNT(kFrontendConnsAccepted);
    {
      par::MutexLock lock(mu_);
      ++stats_.conns_accepted;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    if (conns_.size() >= options_.max_connections) {
      // The connection-bound shed: accepted just long enough to say no,
      // classified, instead of languishing unanswered in the SYN backlog.
      queue_response(*conn, FrontendStatus::kOverloaded, nullptr,
                     "connection bound reached");
    }
    conns_.push_back(std::move(conn));
  }
}

bool Frontend::conn_readable(Conn& c) {
  for (;;) {
    const std::size_t need =
        (c.phase == Conn::Phase::kHeader ? kFrameHeaderBytes
                                         : static_cast<std::size_t>(
                                               c.frame_len)) -
        c.inbuf.size();
    if (need == 0) break;
    char buf[4096];
    const std::size_t want = need < sizeof(buf) ? need : sizeof(buf);
    const ssize_t n = ::read(c.fd, buf, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (would_block(errno)) return true;  // resume on the next POLLIN
      record_end(FrontendStatus::kConnReset);
      return false;
    }
    if (n == 0) {
      if (c.phase == Conn::Phase::kHeader && c.inbuf.empty()) {
        par::MutexLock lock(mu_);
        ++stats_.clean_closes;  // EOF at a frame boundary: a polite goodbye
      } else {
        record_end(FrontendStatus::kConnReset);  // died mid-frame
      }
      return false;
    }
    PFACT_COUNT_N(kFrontendBytesRead, n);
    if (c.inbuf.empty() && c.phase == Conn::Phase::kHeader) {
      // First byte of a new frame arms the read deadline: from here the
      // whole frame must land within read_deadline.
      c.deadline = std::chrono::steady_clock::now() + options_.read_deadline;
    }
    c.inbuf.append(buf, static_cast<std::size_t>(n));

    if (c.phase == Conn::Phase::kHeader &&
        c.inbuf.size() == kFrameHeaderBytes) {
      ByteReader r(c.inbuf);
      const std::uint32_t magic = r.get_u32();
      c.frame_type = r.get_u8();
      c.frame_len = r.get_u64();
      c.frame_crc = r.get_u32();
      if (magic == kFrameMagic &&
          c.frame_type == static_cast<std::uint8_t>(FrameType::kProbe) &&
          c.frame_len == 0 && c.frame_crc == robustness::crc32("", 0)) {
        // Router heartbeat: echo an empty kProbe frame straight from the
        // event loop, never touching the admission queue — liveness of this
        // poll loop is exactly what the prober wants to measure, and a
        // saturated queue must not make a healthy shard look dead. The
        // connection stays open for the next probe.
        ByteWriter w;
        w.reserve(kFrameHeaderBytes);
        w.put_u32(kFrameMagic);
        w.put_u8(static_cast<std::uint8_t>(FrameType::kProbe));
        w.put_u64(0);
        w.put_u32(robustness::crc32("", 0));
        c.outbuf = w.take();
        c.out_off = 0;
        c.inbuf.clear();
        c.phase = Conn::Phase::kWrite;
        c.deadline = std::chrono::steady_clock::now() +
                     options_.write_deadline;
        c.close_after_write = false;
        PFACT_COUNT(kFrontendProbes);
        return true;
      }
      if (magic != kFrameMagic ||
          c.frame_type != static_cast<std::uint8_t>(FrameType::kRequest) ||
          c.frame_len > kMaxFramePayload) {
        // Garbage preamble, a non-request frame type (known or unknown),
        // or an absurd length: one classified refusal, then close — the
        // stream is not trustworthy past a bad header.
        queue_response(c, FrontendStatus::kMalformedFrame, nullptr,
                       magic != kFrameMagic ? "bad frame magic"
                                            : "unexpected frame type/length");
        return true;
      }
      c.inbuf.clear();
      c.phase = Conn::Phase::kPayload;
      if (c.frame_len == 0) {
        finish_frame(c);
        return true;
      }
      continue;
    }
    if (c.phase == Conn::Phase::kPayload && c.inbuf.size() == c.frame_len) {
      finish_frame(c);
      return true;
    }
  }
  return true;
}

void Frontend::finish_frame(Conn& c) {
  PFACT_SPAN("serve.frontend");
  if (robustness::crc32(c.inbuf.data(), c.inbuf.size()) != c.frame_crc) {
    queue_response(c, FrontendStatus::kMalformedFrame, nullptr,
                   "payload CRC mismatch");
    return;
  }
  TaskRequest req;
  if (!decode_request(c.inbuf, req)) {
    queue_response(c, FrontendStatus::kMalformedFrame, nullptr,
                   "request payload does not parse");
    return;
  }
  c.inbuf.clear();
  bool draining;
  {
    par::MutexLock lock(mu_);
    draining = draining_;
  }
  if (draining) {
    queue_response(c, FrontendStatus::kDraining, nullptr,
                   "frontend is draining");
    return;
  }
  // Admission happens on the SAME bounded queue as in-process callers; the
  // socket buys no priority. Only the task crosses the trust boundary —
  // substrate ladder, deadlines, sandboxes and chaos schedules are service
  // policy, not client input.
  c.pending = service_.submit(req.task, options_.job);
  c.phase = Conn::Phase::kService;
  c.deadline = std::chrono::steady_clock::time_point{};
  const int wfd = wake_fds_[1];
  c.pending->notify_on_done([wfd] {
    if (wfd >= 0) {
      const ssize_t ignored = ::write(wfd, "j", 1);
      (void)ignored;
    }
  });
  harvest_resolved(c);  // sheds resolve synchronously inside submit
}

void Frontend::harvest_resolved(Conn& c) {
  if (!c.pending) return;
  const ServiceResponse* resp = c.pending->poll_response();
  if (resp == nullptr) return;
  FrontendStatus status = FrontendStatus::kAccepted;
  switch (resp->admission) {
    case Admission::kAccepted: status = FrontendStatus::kAccepted; break;
    case Admission::kShedQueueFull:
      status = FrontendStatus::kOverloaded;
      break;
    case Admission::kShedDeadline: status = FrontendStatus::kDeadline; break;
    case Admission::kShedShutdown: status = FrontendStatus::kDraining; break;
  }
  queue_response(c, status, resp, nullptr);
  c.pending.reset();
}

void Frontend::queue_response(Conn& c, FrontendStatus status,
                              const ServiceResponse* service_resp,
                              const char* detail) {
  FrontendResponse fr;
  fr.status = status;
  if (service_resp != nullptr) {
    fr.admission = service_resp->admission;
    fr.from_cache = service_resp->from_cache;
    fr.certified = service_resp->report.certified;
    fr.value = service_resp->report.value;
    fr.certified_by = service_resp->report.certified_by;
    fr.report = service_resp->report.final_report;
  } else {
    fr.report.diagnostic = diagnose_frontend_status(status);
    fr.report.detail = detail == nullptr ? "" : detail;
  }
  const std::string payload = encode_response(fr);
  ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.put_u32(kFrameMagic);
  w.put_u8(static_cast<std::uint8_t>(FrameType::kResponse));
  w.put_u64(payload.size());
  w.put_u32(robustness::crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
  c.outbuf = w.take();
  c.out_off = 0;
  c.inbuf.clear();
  c.phase = Conn::Phase::kWrite;
  c.deadline = std::chrono::steady_clock::now() + options_.write_deadline;
  // One classified refusal per broken conversation, then hang up: past a
  // malformed header or an eviction the stream cannot be resynchronized.
  c.close_after_write = status != FrontendStatus::kAccepted;
  record_end(status);
}

bool Frontend::conn_writable(Conn& c) {
  while (c.out_off < c.outbuf.size()) {
    // MSG_NOSIGNAL: a vanished reader must surface as EPIPE, never SIGPIPE.
    const ssize_t n =
        ::send(c.fd, c.outbuf.data() + c.out_off, c.outbuf.size() - c.out_off,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (would_block(errno)) return true;  // resume on the next POLLOUT
      // The response's own status was recorded when it was queued; a peer
      // that vanished before reading it is a second, distinct ending.
      record_end(FrontendStatus::kConnReset);
      return false;
    }
    PFACT_COUNT_N(kFrontendBytesWritten, n);
    c.out_off += static_cast<std::size_t>(n);
  }
  if (c.close_after_write) {
    // Classified refusal delivered. Half-close and linger until the peer
    // hangs up: closing outright while the refused request's bytes are
    // still unread would reset the peer and destroy the refusal frame it
    // has not read yet. The already-armed write deadline bounds the linger.
    ::shutdown(c.fd, SHUT_WR);
    c.outbuf.clear();
    c.out_off = 0;
    c.phase = Conn::Phase::kLinger;
    return true;
  }
  // Response delivered; the connection is reusable for the next request.
  c.outbuf.clear();
  c.out_off = 0;
  c.phase = Conn::Phase::kHeader;
  c.deadline = std::chrono::steady_clock::time_point{};
  return true;
}

bool Frontend::conn_lingering(Conn& c) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (would_block(errno)) return true;  // peer still reading the refusal
      return false;
    }
    if (n == 0) return false;  // the peer read its refusal and hung up
  }
}

bool Frontend::check_deadlines(Conn& c,
                               std::chrono::steady_clock::time_point now) {
  if (c.deadline == std::chrono::steady_clock::time_point{} ||
      now < c.deadline) {
    return true;
  }
  if (c.phase == Conn::Phase::kHeader || c.phase == Conn::Phase::kPayload) {
    // Slowloris eviction: the frame did not complete in time. Queue a
    // best-effort kDeadline response — the stall may be on the client's
    // WRITE side only — bounded by the write deadline below.
    queue_response(c, FrontendStatus::kDeadline, nullptr,
                   "read deadline: frame incomplete");
    return true;
  }
  if (c.phase == Conn::Phase::kWrite) {
    // The response would not drain either: a fully stalled peer. Hard
    // close; the eviction was already recorded when this response was a
    // kDeadline, and a stalled kAccepted reader is its own eviction.
    record_end(FrontendStatus::kDeadline);
    return false;
  }
  if (c.phase == Conn::Phase::kLinger) {
    // The peer never hung up after its refusal: stop waiting. The
    // conversation's status was already recorded when the refusal was
    // queued, so the expiry itself is not a second ending.
    return false;
  }
  return true;  // kService: job timing belongs to the service, not the conn
}

}  // namespace pfact::serve
