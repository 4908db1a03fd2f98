#include "serve/wire.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include "circuit/io.h"
#include "obs/taxonomy.h"
#include "robustness/checkpoint.h"

namespace pfact::serve {

namespace {

constexpr obs::RowTable<obs::NameRow<WireStatus>> kWireStatusRows = {{
    {WireStatus::kOk, "ok"},
    {WireStatus::kEof, "eof"},
    {WireStatus::kTruncated, "truncated"},
    {WireStatus::kBadMagic, "bad-magic"},
    {WireStatus::kBadType, "bad-type"},
    {WireStatus::kCrcMismatch, "crc-mismatch"},
    {WireStatus::kMalformed, "malformed"},
    {WireStatus::kIoError, "io-error"},
    {WireStatus::kTimeout, "timeout"},
    {WireStatus::kConnReset, "conn-reset"},
}};
static_assert(obs::is_row_table(kWireStatusRows));

// The inverse of instance_text. Text that does not parse throws, which
// refuses the record (robustness::detail::decode_fields).
bool parse_instance_text(std::string_view text,
                         circuit::CvpInstance& instance) {
  if (text.empty()) return true;  // the empty instance ReductionTask holds
  circuit::ParsedInstance parsed =
      circuit::parse_circuit_text(std::string(text));
  instance.circuit = std::move(parsed.circuit);
  instance.inputs = parsed.inputs.value_or(std::vector<bool>{});
  return true;
}

// A checkpoint frame's payload: the step, then the PFCK blob verbatim.
struct CheckpointFrame {
  std::uint64_t step = 0;
  std::string_view blob;
};

template <class Io, robustness::detail::Of<CheckpointFrame> R>
void fields(Io& io, R& f) {
  io.u64(f.step);
  io.rest(f.blob);
}

}  // namespace

// Field lists of the records declared in wire.h. They sit in namespace
// serve itself, where argument-dependent lookup finds them.
template <class Io, robustness::detail::Of<FrameHeader> R>
void fields(Io& io, R& h) {
  io.u32(h.magic);
  io.u8(h.type);
  io.u64(h.length);
  io.u32(h.crc);
}

template <class Io, robustness::detail::Of<TaskRequest> R>
void fields(Io& io, R& r) {
  io.u32(r.task.algorithm);
  io.encoded(r.task.instance, instance_text, parse_instance_text);
  io.i32(r.task.u);
  io.i32(r.task.w);
  io.u64(r.task.depth);
  io.u32(r.task.backend);
  io.u32(r.substrate);
  io.u64(r.limits.max_steps);
  io.u64(r.limits.timeout);
  io.u64(r.limits.max_order);
  io.f64(r.limits.decode_tolerance);
  io.u64(r.checkpoint_every);
  io.u64(r.resume_step);
  io.str(r.resume_blob);
  io.u32(r.fault.fault);
  io.u64(r.fault.seed);
  io.u8(r.fault.rounding);
  io.u8(r.kill.mode);
  io.u64(r.kill.after_saves);
  io.u64(r.rlimits.address_space_bytes);
  io.u64(r.rlimits.cpu_seconds);
}

const char* wire_status_name(WireStatus s) {
  return obs::name_of(kWireStatusRows, s);
}

std::string instance_text(const circuit::CvpInstance& instance) {
  if (instance.circuit.num_inputs() == 0 && instance.circuit.num_gates() == 0)
    return "";
  return circuit::circuit_to_text(
      instance.circuit, instance.inputs.empty() ? nullptr : &instance.inputs);
}

std::string encode_request(const TaskRequest& req) {
  return robustness::detail::encode_fields(req);
}

bool decode_request(std::string_view payload, TaskRequest& out) {
  return robustness::detail::decode_fields(payload, out);
}

std::string encode_result(const robustness::RunReport& rep) {
  return robustness::detail::encode_fields(rep);
}

bool decode_result(std::string_view payload, robustness::RunReport& out) {
  return robustness::detail::decode_fields(payload, out);
}

std::string encode_checkpoint_frame(std::uint64_t step,
                                    std::string_view blob) {
  return robustness::detail::encode_fields(CheckpointFrame{step, blob});
}

bool decode_checkpoint_frame(std::string_view payload, std::uint64_t& step,
                             std::string& blob) {
  CheckpointFrame f;
  if (!robustness::detail::decode_fields(payload, f)) return false;
  step = f.step;
  blob.assign(f.blob);
  return true;
}

namespace {

// The frame of the payload that `w` holds behind kFrameHeaderBytes of
// room: fills in the header, whose length and CRC need the payload first.
std::string seal_frame(robustness::detail::ByteWriter& w, FrameType type) {
  const std::string_view payload =
      std::string_view(w.bytes()).substr(kFrameHeaderBytes);
  const FrameHeader h{kFrameMagic, type, payload.size(),
                      robustness::crc32(payload.data(), payload.size())};
  w.overwrite(0, robustness::detail::encode_fields(h));
  return w.take();
}

// Writes one complete frame; retries short writes and EINTR.
WireStatus write_frame(int fd, std::string_view frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // The reader is gone: EPIPE when the kernel knows at write time,
      // ECONNRESET when a socket peer closed with data in flight. Both are
      // the transient "resubmit elsewhere" class, not a local I/O fault.
      if (errno == EPIPE || errno == ECONNRESET) return WireStatus::kConnReset;
      return WireStatus::kIoError;
    }
    off += static_cast<std::size_t>(n);
  }
  return WireStatus::kOk;
}

}  // namespace

std::string frame_bytes(FrameType type, std::string_view payload) {
  robustness::detail::ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.extend(kFrameHeaderBytes);
  w.put_bytes(payload.data(), payload.size());
  return seal_frame(w, type);
}

WireStatus parse_frame_header(std::string_view bytes, FrameHeader& h) {
  robustness::detail::ByteReader r(bytes);
  fields(r, h);  // in place: the magic is read even when the type is refused
  if (h.magic != kFrameMagic) return WireStatus::kBadMagic;
  if (!r.ok() || h.type == FrameType{}) return WireStatus::kBadType;
  return h.length > kMaxFramePayload ? WireStatus::kMalformed : WireStatus::kOk;
}

WireStatus write_frame(int fd, FrameType type, std::string_view payload) {
  return write_frame(fd, frame_bytes(type, payload));
}

WireStatus write_checkpoint_frame(int fd, std::uint64_t step,
                                  std::string_view blob) {
  robustness::detail::ByteWriter w;
  w.reserve(kFrameHeaderBytes + sizeof step + blob.size());
  w.extend(kFrameHeaderBytes);
  robustness::detail::write_fields(w, CheckpointFrame{step, blob});
  return write_frame(fd, seal_frame(w, FrameType::kCheckpoint));
}

namespace {

// Reads exactly n bytes into dst, honoring the deadline. `any_read` reports
// whether at least one byte arrived (EOF after some bytes = torn frame).
WireStatus read_exact(int fd, char* dst, std::size_t n,
                      std::chrono::steady_clock::time_point deadline,
                      bool* any_read) {
  std::size_t off = 0;
  while (off < n) {
    if (deadline != std::chrono::steady_clock::time_point{}) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return WireStatus::kTimeout;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      // Clamp the poll timeout: a deadline far in the future must not
      // overflow poll's int argument into a negative (= infinite) wait. The
      // loop re-derives the remaining budget each pass, so clamping only
      // bounds one poll, never the total wait.
      const long long left_ms = static_cast<long long>(left.count()) + 1;
      constexpr long long kMaxPollMs = 60'000;
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int pr =
          ::poll(&pfd, 1,
                 static_cast<int>(left_ms < kMaxPollMs ? left_ms : kMaxPollMs));
      if (pr < 0) {
        if (errno == EINTR) continue;
        return WireStatus::kIoError;
      }
      if (pr == 0) return WireStatus::kTimeout;
    }
    const ssize_t r = ::read(fd, dst + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return WireStatus::kConnReset;
      return WireStatus::kIoError;
    }
    if (r == 0) {
      return (off == 0 && !*any_read) ? WireStatus::kEof
                                      : WireStatus::kTruncated;
    }
    *any_read = true;
    off += static_cast<std::size_t>(r);
  }
  return WireStatus::kOk;
}

}  // namespace

WireStatus read_frame(int fd, FrameType& type, std::string& payload,
                      std::chrono::steady_clock::time_point deadline) {
  char header[kFrameHeaderBytes];
  bool any_read = false;
  WireStatus st = read_exact(fd, header, sizeof(header), deadline, &any_read);
  if (st != WireStatus::kOk) return st;
  FrameHeader h;
  st = parse_frame_header(std::string_view(header, sizeof(header)), h);
  if (st != WireStatus::kOk) return st;
  payload.resize(h.length);
  if (h.length != 0) {
    st = read_exact(fd, payload.data(), h.length, deadline, &any_read);
    if (st == WireStatus::kEof) return WireStatus::kTruncated;
    if (st != WireStatus::kOk) return st;
  }
  if (robustness::crc32(payload.data(), payload.size()) != h.crc)
    return WireStatus::kCrcMismatch;
  type = h.type;
  return WireStatus::kOk;
}

}  // namespace pfact::serve
