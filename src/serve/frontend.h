#pragma once
// Socket front end for the reduction service — the door "millions of users"
// traffic walks through, built to stay correct while the network misbehaves.
//
// The Frontend is a single poll()-driven event loop listening on a localhost
// Unix socket and/or a 127.0.0.1 TCP port. A client conversation reuses the
// PFRM framing from wire.h verbatim: one kRequest frame carrying a
// TaskRequest down the socket, one kResponse frame carrying a
// FrontendResponse back. Nothing about the frame format is network-specific,
// so a frame captured off the socket replays byte-for-byte against the pipe
// codecs — and the CRC/length/type checks that reject a torn pipe write
// reject a torn TCP segment the same way.
//
// Robustness is the design center, not a wrapper (DESIGN.md section 14):
//
//   * every connection outcome is one FrontendStatus row — named, counted,
//     diagnosable, sweepable (a static_assert keeps the table total). A
//     client is never dropped without a classification; the only
//     unclassified exit is a clean close at a frame boundary.
//   * per-connection deadlines: a frame must COMPLETE within read_deadline
//     of its first byte, and a response must drain within write_deadline —
//     the slowloris client that dribbles a header forever is evicted with a
//     best-effort kDeadline response, never allowed to pin a connection slot.
//   * partial-read/partial-write resumption: the event loop never blocks on
//     a socket. Frames are reassembled across however many POLLIN rounds
//     the bytes take; responses drain across POLLOUT rounds.
//   * bounded connections: at max_connections the listener still accepts —
//     and immediately answers kOverloaded and closes, a classified shed
//     mirroring the admission queue's kShedQueueFull.
//   * graceful drain: begin_drain() (or SIGTERM via install_sigterm_drain)
//     stops accepting, answers kDraining to new requests on open
//     connections, lets every in-flight job finish and its verified result
//     flush into the cache, closes each connection once it is idle at a
//     frame boundary, then exits the loop.
//
// The service boundary is ReductionService::submit + Pending::notify_on_done:
// a decoded request is admitted through the same bounded queue as in-process
// callers, and the resolving dispatcher wakes the loop through a self-pipe.
// The loop therefore holds NO lock while polling and never waits on a job.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/taxonomy.h"
#include "parallel/annotations.h"
#include "robustness/diagnostics.h"
#include "serve/queue.h"
#include "serve/wire.h"

namespace pfact::serve {

// Every way a client conversation can end, from the LISTENER's point of
// view. Total: each request (or failed attempt at one) lands in exactly one
// class.
enum class FrontendStatus {
  kAccepted,        // decoded, admitted, supervised result frame delivered
  kMalformedFrame,  // bad magic/type/length/CRC or an undecodable payload
  kDeadline,        // read or write deadline expired (slow client evicted)
  kConnReset,       // peer vanished mid-frame or mid-response
  kOverloaded,      // connection bound or admission queue shed the load
  kDraining,        // drain in progress: request refused, finish elsewhere
  kCount_,          // sentinel: number of statuses (never on the wire)
};

// Each status's name, the diagnostic the client library classifies it with,
// and the counter bumped when a conversation ends this way. A malformed
// frame is the one FATAL class (the same bytes get the same refusal);
// every other refusal is transient.
inline constexpr auto kFrontendStatusRows = [] {
  using enum robustness::Diagnostic;
  return obs::RowTable<robustness::CountedRow<FrontendStatus>>{{
      {FrontendStatus::kAccepted, "accepted", kOk,
       obs::Counter::kFrontendAccepted},
      {FrontendStatus::kMalformedFrame, "malformed-frame", kBadInput,
       obs::Counter::kFrontendMalformed},
      {FrontendStatus::kDeadline, "deadline", kDeadlineExceeded,
       obs::Counter::kFrontendDeadlineEvictions},
      {FrontendStatus::kConnReset, "conn-reset", kConnReset,
       obs::Counter::kFrontendConnResets},
      {FrontendStatus::kOverloaded, "overloaded", kOverloaded,
       obs::Counter::kFrontendOverloadSheds},
      {FrontendStatus::kDraining, "draining", kCancelled,
       obs::Counter::kFrontendDrainRefusals},
  }};
}();
static_assert(obs::is_row_table(kFrontendStatusRows));

inline const char* frontend_status_name(FrontendStatus s) {
  return obs::name_of(kFrontendStatusRows, s);
}
inline robustness::Diagnostic diagnose_frontend_status(FrontendStatus s) {
  return robustness::diagnosis_of(kFrontendStatusRows, s);
}
inline obs::Counter frontend_status_counter(FrontendStatus s) {
  return robustness::counter_of(kFrontendStatusRows, s,
                                obs::Counter::kFrontendMalformed);
}
// The sweep the rejection-matrix test and the --net soak iterate.
inline const std::vector<FrontendStatus>& all_frontend_statuses() {
  return obs::sweep_of<kFrontendStatusRows>();
}

// --- network fault injection ------------------------------------------------

// The chaos instrument for the socket layer: each shape is one way real
// client traffic goes wrong, applied by the CLIENT side of a connection
// (Client honors it in submit; raw sockets in tests apply it by hand).
enum class NetFault : std::uint8_t {
  kNone = 0,
  kTornFrame = 1,       // write a strict prefix of the frame, then close
  kMidFrameClose = 2,   // close inside the 17-byte header
  kDribble = 3,         // write the full frame one byte at a time (must
                        // still be ACCEPTED: partial-read resumption proof)
  kStalledReader = 4,   // send a partial frame then go silent, holding the
                        // connection open (slowloris; expects kDeadline)
  kGarbagePreamble = 5, // send random junk where a frame should start
  kCount_ = 6,          // sentinel: number of shapes
};

inline constexpr obs::RowTable<obs::NameRow<NetFault>> kNetFaultRows = {{
    {NetFault::kNone, "none"},
    {NetFault::kTornFrame, "torn-frame"},
    {NetFault::kMidFrameClose, "mid-frame-close"},
    {NetFault::kDribble, "dribble"},
    {NetFault::kStalledReader, "stalled-reader"},
    {NetFault::kGarbagePreamble, "garbage-preamble"},
}};
static_assert(obs::is_row_table(kNetFaultRows));

inline const char* net_fault_name(NetFault f) {
  return obs::name_of(kNetFaultRows, f);
}
inline const std::vector<NetFault>& all_net_faults() {
  return obs::sweep_of<kNetFaultRows>();
}

struct NetFaultPlan {
  NetFault fault = NetFault::kNone;
  std::uint64_t seed = 0;       // where the tear lands / what the junk is
  std::size_t on_attempt = 1;   // which client attempt to sabotage; 0 = never
  // How long kStalledReader holds its silence. Must exceed the server's
  // read_deadline for the eviction to fire.
  std::chrono::milliseconds stall{500};
};

// --- response payload -------------------------------------------------------

// What rides back in a kResponse frame: the listener's classification plus
// the service's full answer. For non-kAccepted statuses the report carries
// the classified diagnostic (diagnose_frontend_status) and a human detail.
struct FrontendResponse {
  FrontendStatus status = FrontendStatus::kConnReset;
  Admission admission = Admission::kAccepted;
  bool from_cache = false;
  bool certified = false;
  bool value = false;
  robustness::Substrate certified_by = robustness::Substrate::kDouble;
  robustness::RunReport report;  // the deciding attempt's full report
};

std::string encode_response(const FrontendResponse& resp);
bool decode_response(std::string_view payload, FrontendResponse& out);

// --- the listener -----------------------------------------------------------

struct FrontendOptions {
  // Unix-domain listener path; empty disables it. An existing socket file
  // at the path is unlinked first (stale from a kill -9'd predecessor).
  std::string unix_path;
  // 127.0.0.1 TCP listener; port 0 picks an ephemeral port (tcp_port()).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  // Connection slots. At the bound the listener still accepts and answers
  // kOverloaded — a classified shed, not a silent SYN-queue stall.
  std::size_t max_connections = 32;
  // A frame must complete within this of its first byte (slowloris guard).
  std::chrono::milliseconds read_deadline{2000};
  // A queued response must fully drain within this of being queued.
  std::chrono::milliseconds write_deadline{2000};
  // Job knobs applied to every socket submission (deadline, watchdog, ...).
  JobOptions job;
};

class Frontend {
 public:
  // Binds, listens, and starts the event-loop thread. `service` must
  // outlive the Frontend. running() reports whether any listener bound.
  Frontend(ReductionService& service, FrontendOptions options);
  ~Frontend();  // begin_drain() + join

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  bool running() const;
  // The bound TCP port (resolves an ephemeral request); 0 when TCP is off.
  std::uint16_t tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  // Stop accepting, refuse new requests as kDraining, finish in-flight
  // jobs (their verified results flush into the service cache), then exit
  // the loop. Idempotent; returns immediately (join happens in ~Frontend).
  void begin_drain();
  // True once the event loop has fully exited (drain complete).
  bool drained() const;

  // Installs a process-wide SIGTERM handler that asks every live Frontend
  // to begin_drain() — the graceful-shutdown hook for a served deployment.
  // The handler only writes to a self-pipe; it is async-signal-safe.
  static void install_sigterm_drain();
  // Clears the latched SIGTERM-drain flag so frontends created after a
  // handled SIGTERM (tests only — a real deployment exits) start live.
  static void reset_sigterm_for_testing();

  struct Stats {
    std::uint64_t conns_accepted = 0;
    // Conversations ended in each FrontendStatus, indexable by enumerator.
    std::array<std::uint64_t, obs::kCountOf<FrontendStatus>> by_status{};
    std::uint64_t clean_closes = 0;  // EOF at a frame boundary (no status)

    std::uint64_t status(FrontendStatus s) const {
      return by_status[static_cast<std::size_t>(s)];
    }
  };
  Stats stats() const;

 private:
  struct Conn;

  void event_loop();
  void accept_ready(int listen_fd);
  bool conn_readable(Conn& c);   // false = close the connection
  bool conn_writable(Conn& c);
  bool conn_lingering(Conn& c);  // discarding input after a refusal
  bool check_deadlines(Conn& c, std::chrono::steady_clock::time_point now);
  void finish_frame(Conn& c);    // a complete verified frame arrived
  void queue_response(Conn& c, FrontendStatus status,
                      const ServiceResponse* service_resp, const char* detail);
  void harvest_resolved(Conn& c);
  void record_end(FrontendStatus status);
  void wake();

  ReductionService& service_;
  FrontendOptions options_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  int wake_fds_[2] = {-1, -1};  // self-pipe: job resolution -> poll()
  std::thread loop_;

  mutable par::Mutex mu_;
  bool draining_ PFACT_GUARDED_BY(mu_) = false;
  bool drained_ PFACT_GUARDED_BY(mu_) = false;
  Stats stats_ PFACT_GUARDED_BY(mu_);

  // Owned exclusively by the event-loop thread; never touched elsewhere.
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace pfact::serve
