#pragma once
// Framed pipe protocol between the supervisor and its worker subprocesses.
//
// A worker conversation is one request frame down the request pipe, then a
// stream of checkpoint frames followed by (at most) one result frame up the
// response pipe. Workers die — that is the point of process isolation — so
// the protocol is designed to make every death *detectable*, never silently
// corrupting:
//
//   * every frame is CRC32-protected (same polynomial and codec helpers as
//     the "PFCK" checkpoint blobs), so a frame torn by a mid-write SIGKILL
//     is rejected, not half-parsed;
//   * checkpoint frames carry full PFCK blobs, which the supervisor vets
//     again with validate_checkpoint_envelope before filing them for
//     resume — a crash can only ever hand back verified state;
//   * reads are poll()-based with a deadline, so a wedged worker surfaces
//     as kTimeout (the watchdog's trigger), not a hung supervisor.
//
// A frame is a FrameHeader (magic "PFRM", FrameType, payload length, CRC32
// of the payload; kFrameHeaderBytes little-endian) and the payload. The
// header and each payload (request, result, checkpoint frame, and the
// frontend's response) are one field list each (robustness/fields.h), so
// encoder and decoder cannot drift; an unknown frame type is kBadType. The
// circuit travels as its canonical text (instance_text below), so there is
// no second, divergent circuit serialization to keep in sync.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/guarded_run.h"

namespace pfact::serve {

inline constexpr std::uint32_t kFrameMagic = 0x4D524650;  // "PFRM"
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 8 + 4;
// Sanity cap on a declared payload length: a corrupted header must not make
// the reader allocate an absurd buffer before the CRC can reject it.
inline constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 30;

enum class FrameType : std::uint8_t {
  kRequest = 1,     // supervisor -> worker: one serialized TaskRequest
  kCheckpoint = 2,  // worker -> supervisor: step u64 + one PFCK blob
  kResult = 3,      // worker -> supervisor: one serialized RunReport
  kResponse = 4,    // frontend -> client: one serialized FrontendResponse
  kProbe = 5,       // router <-> shard: empty-payload health heartbeat; the
                    // frontend echoes it straight from its poll loop, so an
                    // ack proves event-loop liveness, not queue capacity
  kCount_,          // sentinel: one past the last type (0 is no type)
};

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  FrameType type = FrameType::kRequest;
  std::uint64_t length = 0;  // payload bytes
  std::uint32_t crc = 0;     // CRC32 of the payload
};

// The complete on-wire bytes of one frame.
std::string frame_bytes(FrameType type, std::string_view payload);

enum class WireStatus {
  kOk,
  kEof,          // clean end of stream before any header byte
  kTruncated,    // stream ended inside a frame (torn write / worker death)
  kBadMagic,     // stream desynchronized or not a frame at all
  kBadType,      // unknown FrameType
  kCrcMismatch,  // payload bytes do not hash to the stored CRC
  kMalformed,    // frame verified but the payload does not parse
  kIoError,      // read/write failed (EBADF, ...)
  kTimeout,      // deadline expired mid-read (the watchdog's signal)
  kConnReset,    // the peer vanished (EPIPE / ECONNRESET): a socket-era
                 // death, distinct from kIoError so clients can classify
                 // it transient and resubmit (Diagnostic::kConnReset)
  kCount_,       // sentinel: number of statuses
};

const char* wire_status_name(WireStatus s);

// Parses and vets the kFrameHeaderBytes of a header: kBadMagic for a
// desynchronized stream, kBadType for a type byte that names no FrameType,
// kMalformed for a length over kMaxFramePayload, else kOk.
WireStatus parse_frame_header(std::string_view bytes, FrameHeader& h);

// How (and whether) a worker kills itself mid-run — the soak harness's
// real-crash instrument. The trigger fires once `after_saves` checkpoint
// frames have been shipped (0 = before the reduction starts), so kills land
// at exact checkpoint boundaries and resume equivalence is assertable.
struct KillPlan {
  enum class Mode : std::uint8_t {
    kNone = 0,
    kSigkill = 1,  // raise(SIGKILL): instant death, no cleanup
    kSigsegv = 2,  // a genuine wild store: dies by SIGSEGV
    kExit = 3,     // _exit(kKillPlanExitCode): orderly-but-wrong termination
    kSpin = 4,     // burn CPU forever: watchdog / RLIMIT_CPU fodder
    kCount_,       // sentinel: number of modes
  };
  Mode mode = Mode::kNone;
  std::uint64_t after_saves = 0;
};

// Exit code used by KillPlan::Mode::kExit, distinct from the worker's own
// protocol-failure exit codes (worker.h).
inline constexpr int kKillPlanExitCode = 3;

// rlimit sandbox applied inside the worker before the reduction runs.
// Zero means "leave that limit alone".
struct WorkerLimits {
  std::uint64_t address_space_bytes = 0;  // RLIMIT_AS
  std::uint64_t cpu_seconds = 0;          // RLIMIT_CPU (soft; hard = soft+2)
};

// Everything a worker needs to (re-)run one guarded attempt, including the
// verified blob it should resume from (empty = start from scratch).
struct TaskRequest {
  robustness::ReductionTask task;
  robustness::Substrate substrate = robustness::Substrate::kDouble;
  robustness::GuardLimits limits;
  std::size_t checkpoint_every = 0;
  std::uint64_t resume_step = 0;
  std::string resume_blob;
  robustness::FaultPlan fault;
  KillPlan kill;
  WorkerLimits rlimits;
};

// The canonical text of an instance, which is also its content address
// (ResultCache::key_for): the circuit text with its input assignment, or
// "" for the empty instance of the GEP/GQR chain tasks, which the text
// format cannot express ("inputs 0" is refused by the parser).
std::string instance_text(const circuit::CvpInstance& instance);

// --- payload codecs --------------------------------------------------------

std::string encode_request(const TaskRequest& req);
bool decode_request(std::string_view payload, TaskRequest& out);

// Serializes the report fields that cross the process boundary (their
// field list is beside RunReport, robustness/diagnostics.h). Metrics do not
// travel: op counters are per-process by design, and the supervisor's own
// counters cover the worker lifecycle.
std::string encode_result(const robustness::RunReport& rep);
bool decode_result(std::string_view payload, robustness::RunReport& out);

std::string encode_checkpoint_frame(std::uint64_t step, std::string_view blob);
bool decode_checkpoint_frame(std::string_view payload, std::uint64_t& step,
                             std::string& blob);

// --- frame I/O -------------------------------------------------------------

// Writes one complete frame; retries short writes and EINTR. kConnReset on
// EPIPE/ECONNRESET (the reader died) — callers must have SIGPIPE ignored.
WireStatus write_frame(int fd, FrameType type, std::string_view payload);

// Writes the bytes of write_frame(fd, FrameType::kCheckpoint,
// encode_checkpoint_frame(step, blob)), copying the blob once, not twice:
// the payload is built in place behind the header.
WireStatus write_checkpoint_frame(int fd, std::uint64_t step,
                                  std::string_view blob);

// Reads one complete frame, polling against `deadline` (zero-duration
// deadline = block indefinitely). Returns kEof only on a clean boundary;
// a stream that dies mid-frame is kTruncated.
WireStatus read_frame(int fd, FrameType& type, std::string& payload,
                      std::chrono::steady_clock::time_point deadline =
                          std::chrono::steady_clock::time_point{});

}  // namespace pfact::serve
