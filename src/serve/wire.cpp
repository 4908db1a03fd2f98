#include "serve/wire.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <cstring>

#include "circuit/io.h"
#include "obs/taxonomy.h"
#include "robustness/checkpoint.h"

namespace pfact::serve {

namespace {

using robustness::detail::ByteReader;
using robustness::detail::ByteWriter;

// Casting helpers: the wire carries enum ordinals; a decoder must range-check
// them (a corrupted-but-CRC-valid payload cannot exist, but a version-skewed
// peer can send ordinals this build does not know).
bool to_algorithm(std::uint32_t v, robustness::Algorithm& out) {
  if (v > static_cast<std::uint32_t>(robustness::Algorithm::kGqr)) return false;
  out = static_cast<robustness::Algorithm>(v);
  return true;
}

bool to_substrate(std::uint32_t v, robustness::Substrate& out) {
  if (v > static_cast<std::uint32_t>(robustness::Substrate::kRational))
    return false;
  out = static_cast<robustness::Substrate>(v);
  return true;
}

bool to_backend(std::uint32_t v, robustness::Backend& out) {
  if (v > static_cast<std::uint32_t>(robustness::Backend::kSparse))
    return false;
  out = static_cast<robustness::Backend>(v);
  return true;
}

bool to_fault(std::uint32_t v, robustness::FaultClass& out) {
  if (v >= obs::kCountOf<robustness::FaultClass>) return false;
  out = static_cast<robustness::FaultClass>(v);
  return true;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

const char* wire_status_name(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kEof: return "eof";
    case WireStatus::kTruncated: return "truncated";
    case WireStatus::kBadMagic: return "bad-magic";
    case WireStatus::kBadType: return "bad-type";
    case WireStatus::kCrcMismatch: return "crc-mismatch";
    case WireStatus::kMalformed: return "malformed";
    case WireStatus::kIoError: return "io-error";
    case WireStatus::kTimeout: return "timeout";
    case WireStatus::kConnReset: return "conn-reset";
  }
  return "?";
}

std::string encode_request(const TaskRequest& req) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(req.task.algorithm));
  // The circuit travels as canonical text; the assignment line is emitted
  // only when inputs exist. The GEP/GQR chain tasks carry the empty
  // instance, which the text format cannot express ("inputs 0" is refused
  // by the parser) — it travels as the empty string instead.
  if (req.task.instance.circuit.num_inputs() == 0 &&
      req.task.instance.circuit.num_gates() == 0) {
    w.put_string("");
  } else {
    const std::vector<bool>* inputs =
        req.task.instance.inputs.empty() ? nullptr : &req.task.instance.inputs;
    w.put_string(circuit::circuit_to_text(req.task.instance.circuit, inputs));
  }
  w.put_i32(req.task.u);
  w.put_i32(req.task.w);
  w.put_u64(req.task.depth);
  w.put_u32(static_cast<std::uint32_t>(req.task.backend));
  w.put_u32(static_cast<std::uint32_t>(req.substrate));
  w.put_u64(req.limits.max_steps);
  w.put_u64(static_cast<std::uint64_t>(req.limits.timeout.count()));
  w.put_u64(req.limits.max_order);
  w.put_u64(double_bits(req.limits.decode_tolerance));
  w.put_u64(req.checkpoint_every);
  w.put_u64(req.resume_step);
  w.put_string(req.resume_blob);
  w.put_u32(static_cast<std::uint32_t>(req.fault.fault));
  w.put_u64(req.fault.seed);
  w.put_u8(static_cast<std::uint8_t>(req.fault.rounding));
  w.put_u8(static_cast<std::uint8_t>(req.kill.mode));
  w.put_u64(req.kill.after_saves);
  w.put_u64(req.rlimits.address_space_bytes);
  w.put_u64(req.rlimits.cpu_seconds);
  return w.take();
}

bool decode_request(std::string_view payload, TaskRequest& out) {
  ByteReader r(payload);
  TaskRequest req;
  if (!to_algorithm(r.get_u32(), req.task.algorithm)) return false;
  const std::string circuit_text = r.get_string();
  if (!r.ok()) return false;
  if (!circuit_text.empty()) {
    try {
      circuit::ParsedInstance parsed =
          circuit::parse_circuit_text(circuit_text);
      req.task.instance.circuit = std::move(parsed.circuit);
      req.task.instance.inputs =
          parsed.inputs.has_value() ? *parsed.inputs : std::vector<bool>{};
    } catch (const std::exception&) {
      return false;
    }
  }  // empty text = the empty instance ReductionTask defaults to
  req.task.u = r.get_i32();
  req.task.w = r.get_i32();
  req.task.depth = static_cast<std::size_t>(r.get_u64());
  if (!to_backend(r.get_u32(), req.task.backend)) return false;
  if (!to_substrate(r.get_u32(), req.substrate)) return false;
  req.limits.max_steps = static_cast<std::size_t>(r.get_u64());
  req.limits.timeout = std::chrono::milliseconds(
      static_cast<std::int64_t>(r.get_u64()));
  req.limits.max_order = static_cast<std::size_t>(r.get_u64());
  req.limits.decode_tolerance = bits_double(r.get_u64());
  req.checkpoint_every = static_cast<std::size_t>(r.get_u64());
  req.resume_step = r.get_u64();
  req.resume_blob = r.get_string();
  if (!to_fault(r.get_u32(), req.fault.fault)) return false;
  req.fault.seed = r.get_u64();
  const std::uint8_t rounding = r.get_u8();
  if (rounding >
      static_cast<std::uint8_t>(numeric::SoftFloatRounding::kAwayFromZero))
    return false;
  req.fault.rounding = static_cast<numeric::SoftFloatRounding>(rounding);
  const std::uint8_t kill_mode = r.get_u8();
  if (kill_mode > static_cast<std::uint8_t>(KillPlan::Mode::kSpin))
    return false;
  req.kill.mode = static_cast<KillPlan::Mode>(kill_mode);
  req.kill.after_saves = r.get_u64();
  req.rlimits.address_space_bytes = r.get_u64();
  req.rlimits.cpu_seconds = r.get_u64();
  if (!r.ok() || !r.exhausted()) return false;
  out = std::move(req);
  return true;
}

std::string encode_result(const robustness::RunReport& rep) {
  ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(rep.diagnostic));
  w.put_u8(rep.value ? 1 : 0);
  w.put_string(rep.algorithm);
  w.put_u64(rep.order);
  w.put_u64(double_bits(rep.decoded_entry));
  w.put_u64(rep.steps_used);
  w.put_u64(rep.offending_row);
  w.put_u64(rep.offending_col);
  w.put_string(rep.detail);
  w.put_string(rep.pivot_excerpt);
  w.put_string(rep.injection);
  w.put_u64(rep.trace.size());
  for (const factor::PivotEvent& e : rep.trace.events()) {
    w.put_u64(e.column);
    w.put_u64(e.pivot_pos);
    w.put_u64(e.pivot_row);
    w.put_u32(static_cast<std::uint32_t>(e.action));
  }
  return w.take();
}

bool decode_result(std::string_view payload, robustness::RunReport& out) {
  ByteReader r(payload);
  robustness::RunReport rep;
  const std::uint32_t diag = r.get_u32();
  // The taxonomy is append-only: every ordinal below kCount_ decodes.
  if (diag >= obs::kCountOf<robustness::Diagnostic>) return false;
  rep.diagnostic = static_cast<robustness::Diagnostic>(diag);
  rep.value = r.get_u8() != 0;
  rep.algorithm = r.get_string();
  rep.order = static_cast<std::size_t>(r.get_u64());
  rep.decoded_entry = bits_double(r.get_u64());
  rep.steps_used = static_cast<std::size_t>(r.get_u64());
  rep.offending_row = static_cast<std::size_t>(r.get_u64());
  rep.offending_col = static_cast<std::size_t>(r.get_u64());
  rep.detail = r.get_string();
  rep.pivot_excerpt = r.get_string();
  rep.injection = r.get_string();
  const std::uint64_t events = r.get_u64();
  if (!r.ok() || events > payload.size()) return false;  // >= 28 bytes/event
  for (std::uint64_t i = 0; i < events; ++i) {
    factor::PivotEvent e;
    e.column = static_cast<std::size_t>(r.get_u64());
    e.pivot_pos = static_cast<std::size_t>(r.get_u64());
    e.pivot_row = static_cast<std::size_t>(r.get_u64());
    const std::uint32_t action = r.get_u32();
    if (action > static_cast<std::uint32_t>(factor::PivotAction::kFail))
      return false;
    e.action = static_cast<factor::PivotAction>(action);
    rep.trace.record(e);
  }
  if (!r.ok() || !r.exhausted()) return false;
  out = std::move(rep);
  return true;
}

std::string encode_checkpoint_frame(std::uint64_t step,
                                    std::string_view blob) {
  ByteWriter w;
  w.reserve(8 + blob.size());
  w.put_u64(step);
  w.put_bytes(blob.data(), blob.size());
  return w.take();
}

bool decode_checkpoint_frame(std::string_view payload, std::uint64_t& step,
                             std::string& blob) {
  if (payload.size() < 8) return false;
  ByteReader r(payload.substr(0, 8));
  step = r.get_u64();
  blob.assign(payload.substr(8));
  return true;
}

WireStatus write_frame(int fd, FrameType type, std::string_view payload) {
  ByteWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.put_u32(kFrameMagic);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u64(payload.size());
  w.put_u32(robustness::crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
  const std::string& frame = w.bytes();
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
  ByteReader r(std::string_view(header, sizeof(header)));
  const std::uint32_t magic = r.get_u32();
  const std::uint8_t raw_type = r.get_u8();
  const std::uint64_t length = r.get_u64();
  const std::uint32_t crc = r.get_u32();
  if (magic != kFrameMagic) return WireStatus::kBadMagic;
  if (raw_type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kProbe)) {
    return WireStatus::kBadType;
  }
  if (length > kMaxFramePayload) return WireStatus::kMalformed;
  payload.resize(length);
  if (length != 0) {
    st = read_exact(fd, payload.data(), length, deadline, &any_read);
    if (st == WireStatus::kEof) return WireStatus::kTruncated;
    if (st != WireStatus::kOk) return st;
  }
  if (robustness::crc32(payload.data(), payload.size()) != crc)
    return WireStatus::kCrcMismatch;
  type = static_cast<FrameType>(raw_type);
  return WireStatus::kOk;
}

}  // namespace pfact::serve
