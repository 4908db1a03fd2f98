// Wire-protocol unit tests: payload codecs round-trip bit-exactly, and the
// frame layer rejects every way a frame can arrive damaged (CRC mismatch,
// truncation, desynchronization, deadline expiry) instead of half-parsing.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/taxonomy.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"
#include "robustness/checkpoint.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/result_cache.h"
#include "serve/wire.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::ReductionTask;
using robustness::RunReport;
using robustness::Substrate;

ReductionTask gem_xor_task() {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  return task;
}

TEST(Wire, RequestRoundTripsACircuitTask) {
  TaskRequest req;
  req.task = gem_xor_task();
  req.substrate = Substrate::kSoftFloat53;
  req.limits.max_steps = 77;
  req.limits.timeout = std::chrono::milliseconds(1234);
  req.limits.max_order = 4096;
  req.limits.decode_tolerance = 1e-9;
  req.checkpoint_every = 3;
  req.resume_step = 42;
  req.resume_blob = "not a real blob";
  req.fault.fault = robustness::FaultClass::kTornWrite;
  req.fault.seed = 17;
  req.kill.mode = KillPlan::Mode::kSigsegv;
  req.kill.after_saves = 5;
  req.rlimits.address_space_bytes = 1u << 30;
  req.rlimits.cpu_seconds = 9;

  TaskRequest back;
  ASSERT_TRUE(decode_request(encode_request(req), back));
  EXPECT_EQ(back.task.algorithm, req.task.algorithm);
  EXPECT_EQ(back.task.instance.circuit.num_inputs(),
            req.task.instance.circuit.num_inputs());
  EXPECT_EQ(back.task.instance.circuit.num_gates(),
            req.task.instance.circuit.num_gates());
  EXPECT_EQ(back.task.instance.inputs, req.task.instance.inputs);
  EXPECT_EQ(back.task.expected(), req.task.expected());
  EXPECT_EQ(back.substrate, req.substrate);
  EXPECT_EQ(back.limits.max_steps, req.limits.max_steps);
  EXPECT_EQ(back.limits.timeout, req.limits.timeout);
  EXPECT_EQ(back.limits.max_order, req.limits.max_order);
  EXPECT_EQ(back.limits.decode_tolerance, req.limits.decode_tolerance);
  EXPECT_EQ(back.checkpoint_every, req.checkpoint_every);
  EXPECT_EQ(back.resume_step, req.resume_step);
  EXPECT_EQ(back.resume_blob, req.resume_blob);
  EXPECT_EQ(back.fault.fault, req.fault.fault);
  EXPECT_EQ(back.fault.seed, req.fault.seed);
  EXPECT_EQ(back.kill.mode, req.kill.mode);
  EXPECT_EQ(back.kill.after_saves, req.kill.after_saves);
  EXPECT_EQ(back.rlimits.address_space_bytes, req.rlimits.address_space_bytes);
  EXPECT_EQ(back.rlimits.cpu_seconds, req.rlimits.cpu_seconds);
}

TEST(Wire, RequestRoundTripsAChainTaskWithEmptyInstance) {
  TaskRequest req;
  req.task.algorithm = Algorithm::kGqr;
  req.task.u = 1;
  req.task.w = -1;
  req.task.depth = 2;

  TaskRequest back;
  ASSERT_TRUE(decode_request(encode_request(req), back));
  EXPECT_EQ(back.task.algorithm, Algorithm::kGqr);
  EXPECT_EQ(back.task.instance.circuit.num_inputs(), 0u);
  EXPECT_EQ(back.task.instance.circuit.num_gates(), 0u);
  EXPECT_EQ(back.task.u, 1);
  EXPECT_EQ(back.task.w, -1);
  EXPECT_EQ(back.task.depth, 2u);
}

TEST(Wire, ResultRoundTripsAFullRealReport) {
  const RunReport rep = run_on_substrate(gem_xor_task(), Substrate::kDouble);
  ASSERT_EQ(rep.diagnostic, Diagnostic::kOk);
  ASSERT_GT(rep.trace.size(), 0u);

  RunReport back;
  ASSERT_TRUE(decode_result(encode_result(rep), back));
  EXPECT_EQ(back.diagnostic, rep.diagnostic);
  EXPECT_EQ(back.value, rep.value);
  EXPECT_EQ(back.algorithm, rep.algorithm);
  EXPECT_EQ(back.order, rep.order);
  EXPECT_EQ(back.decoded_entry, rep.decoded_entry);  // bit-equal
  EXPECT_EQ(back.steps_used, rep.steps_used);
  EXPECT_EQ(back.offending_row, rep.offending_row);
  EXPECT_EQ(back.offending_col, rep.offending_col);
  EXPECT_EQ(back.detail, rep.detail);
  ASSERT_EQ(back.trace.size(), rep.trace.size());
  for (std::size_t i = 0; i < rep.trace.size(); ++i) {
    EXPECT_EQ(back.trace[i].column, rep.trace[i].column);
    EXPECT_EQ(back.trace[i].pivot_pos, rep.trace[i].pivot_pos);
    EXPECT_EQ(back.trace[i].pivot_row, rep.trace[i].pivot_row);
    EXPECT_EQ(back.trace[i].action, rep.trace[i].action);
  }
}

// --- enum fields ------------------------------------------------------------
// A reader refuses an enum ordinal at or past the enum's kCount_ and takes
// every ordinal below it, so a peer that knows more enumerators is refused,
// never misread, and appending one needs no decoder edit.

// Each ordinal of E below kCount_, set into `record` by `set`, encodes,
// decodes and re-encodes to the same bytes; kCount_ itself is refused.
template <class E, class R, class Set, class Encode, class Decode>
void expect_enum_bound(const char* what, R record, Set set, Encode encode,
                       Decode decode) {
  constexpr std::size_t kCount = obs::kCountOf<E>;
  for (std::size_t i = 0; i <= kCount; ++i) {
    set(record, static_cast<E>(i));
    const std::string bytes = encode(record);
    R back;
    ASSERT_EQ(decode(bytes, back), i < kCount) << what << " = " << i;
    if (i < kCount) {
      EXPECT_EQ(encode(back), bytes) << what << " = " << i;
    }
  }
}

// A one-event trace whose event takes the given action.
factor::PivotTrace trace_with(factor::PivotAction a) {
  factor::PivotTrace t;
  t.record({1, 2, 3, a});
  return t;
}

TEST(Wire, EveryEnumFieldTakesEachOrdinalAndRefusesItsCount) {
  TaskRequest req;
  req.task = gem_xor_task();
  const auto enc_req = [](const TaskRequest& r) { return encode_request(r); };
  const auto dec_req = [](const std::string& b, TaskRequest& r) {
    return decode_request(b, r);
  };
  expect_enum_bound<Algorithm>(
      "request algorithm", req,
      [](TaskRequest& r, Algorithm v) { r.task.algorithm = v; }, enc_req,
      dec_req);
  expect_enum_bound<robustness::Backend>(
      "request backend", req,
      [](TaskRequest& r, robustness::Backend v) { r.task.backend = v; },
      enc_req, dec_req);
  expect_enum_bound<Substrate>(
      "request substrate", req,
      [](TaskRequest& r, Substrate v) { r.substrate = v; }, enc_req, dec_req);
  expect_enum_bound<robustness::FaultClass>(
      "request fault", req,
      [](TaskRequest& r, robustness::FaultClass v) { r.fault.fault = v; },
      enc_req, dec_req);
  expect_enum_bound<numeric::SoftFloatRounding>(
      "request rounding", req,
      [](TaskRequest& r, numeric::SoftFloatRounding v) {
        r.fault.rounding = v;
      },
      enc_req, dec_req);
  expect_enum_bound<KillPlan::Mode>(
      "request kill mode", req,
      [](TaskRequest& r, KillPlan::Mode v) { r.kill.mode = v; }, enc_req,
      dec_req);

  RunReport rep;
  const auto enc_rep = [](const RunReport& r) { return encode_result(r); };
  const auto dec_rep = [](const std::string& b, RunReport& r) {
    return decode_result(b, r);
  };
  expect_enum_bound<Diagnostic>(
      "result diagnostic", rep,
      [](RunReport& r, Diagnostic v) { r.diagnostic = v; }, enc_rep, dec_rep);
  expect_enum_bound<factor::PivotAction>(
      "result trace action", rep,
      [](RunReport& r, factor::PivotAction v) { r.trace = trace_with(v); },
      enc_rep, dec_rep);

  FrontendResponse resp;
  const auto enc_resp = [](const FrontendResponse& r) {
    return encode_response(r);
  };
  const auto dec_resp = [](const std::string& b, FrontendResponse& r) {
    return decode_response(b, r);
  };
  expect_enum_bound<FrontendStatus>(
      "response status", resp,
      [](FrontendResponse& r, FrontendStatus v) { r.status = v; }, enc_resp,
      dec_resp);
  expect_enum_bound<Admission>(
      "response admission", resp,
      [](FrontendResponse& r, Admission v) { r.admission = v; }, enc_resp,
      dec_resp);
  expect_enum_bound<Substrate>(
      "response certified_by", resp,
      [](FrontendResponse& r, Substrate v) { r.certified_by = v; }, enc_resp,
      dec_resp);
  expect_enum_bound<Diagnostic>(
      "response report diagnostic", resp,
      [](FrontendResponse& r, Diagnostic v) { r.report.diagnostic = v; },
      enc_resp, dec_resp);

  expect_enum_bound<Substrate>(
      "cache entry substrate", CacheEntry{},
      [](CacheEntry& e, Substrate v) { e.substrate = v; },
      [](const CacheEntry& e) {
        return robustness::detail::encode_fields(e);
      },
      [](const std::string& b, CacheEntry& e) {
        return robustness::detail::decode_fields(b, e);
      });

  robustness::FactorCheckpoint<double> ckpt;
  ckpt.algorithm = "GEM";
  ckpt.matrix = Matrix<double>(2, 2);
  expect_enum_bound<factor::PivotAction>(
      "checkpoint trace action", ckpt,
      [](robustness::FactorCheckpoint<double>& c, factor::PivotAction v) {
        c.trace = trace_with(v);
      },
      [](const robustness::FactorCheckpoint<double>& c) {
        return robustness::encode_checkpoint(c);
      },
      [](const std::string& b, robustness::FactorCheckpoint<double>& c) {
        return robustness::decode_checkpoint(b, c) ==
               robustness::CheckpointStatus::kOk;
      });

  // Frame types start at 1: ordinal 0 is no type, and neither is kCount_.
  for (std::size_t i = 0; i <= obs::kCountOf<FrameType>; ++i) {
    FrameHeader h;
    const std::string bytes =
        frame_bytes(static_cast<FrameType>(i), "payload").substr(
            0, kFrameHeaderBytes);
    EXPECT_EQ(parse_frame_header(bytes, h),
              i != 0 && i < obs::kCountOf<FrameType> ? WireStatus::kOk
                                                     : WireStatus::kBadType)
        << "frame type = " << i;
  }
}

TEST(Wire, TruncatedPayloadsDoNotDecode) {
  const std::string req = encode_request(TaskRequest{});
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, req.size() - 1}) {
    TaskRequest out;
    EXPECT_FALSE(decode_request(req.substr(0, keep), out)) << keep;
  }
  const std::string res = encode_result(RunReport{});
  RunReport out;
  EXPECT_FALSE(decode_result(res.substr(0, res.size() - 1), out));
  EXPECT_FALSE(decode_result(res + "x", out));  // trailing garbage
}

class FramePipe : public ::testing::Test {
 protected:
  void SetUp() override {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    rd_ = fds[0];
    wr_ = fds[1];
  }
  void TearDown() override {
    if (rd_ >= 0) ::close(rd_);
    if (wr_ >= 0) ::close(wr_);
  }
  void close_wr() {
    ::close(wr_);
    wr_ = -1;
  }
  int rd_ = -1;
  int wr_ = -1;
};

TEST_F(FramePipe, FramesRoundTripWithTypeAndPayload) {
  const std::string payload = encode_checkpoint_frame(7, "blob bytes");
  ASSERT_EQ(write_frame(wr_, FrameType::kCheckpoint, payload), WireStatus::kOk);
  close_wr();

  FrameType type = FrameType::kRequest;
  std::string got;
  ASSERT_EQ(read_frame(rd_, type, got), WireStatus::kOk);
  EXPECT_EQ(type, FrameType::kCheckpoint);
  EXPECT_EQ(got, payload);
  std::uint64_t step = 0;
  std::string blob;
  ASSERT_TRUE(decode_checkpoint_frame(got, step, blob));
  EXPECT_EQ(step, 7u);
  EXPECT_EQ(blob, "blob bytes");
  // And the stream ends cleanly.
  EXPECT_EQ(read_frame(rd_, type, got), WireStatus::kEof);
}

TEST_F(FramePipe, CorruptedPayloadIsRejectedByCrc) {
  std::string frame;
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(write_frame(fds[1], FrameType::kResult, "payload"), WireStatus::kOk);
    ::close(fds[1]);
    char buf[256];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    frame.assign(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
  }
  frame[kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  ASSERT_EQ(::write(wr_, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  close_wr();
  FrameType type = FrameType::kRequest;
  std::string payload;
  EXPECT_EQ(read_frame(rd_, type, payload), WireStatus::kCrcMismatch);
}

TEST_F(FramePipe, StreamDyingMidFrameIsTruncatedNotEof) {
  std::string frame;
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(write_frame(fds[1], FrameType::kResult, "payload"), WireStatus::kOk);
    ::close(fds[1]);
    char buf[256];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    ASSERT_GT(n, 0);
    frame.assign(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
  }
  // Ship only part of the frame, then kill the stream — a mid-write death.
  ASSERT_EQ(::write(wr_, frame.data(), frame.size() - 3),
            static_cast<ssize_t>(frame.size() - 3));
  close_wr();
  FrameType type = FrameType::kRequest;
  std::string payload;
  EXPECT_EQ(read_frame(rd_, type, payload), WireStatus::kTruncated);
}

TEST_F(FramePipe, DesynchronizedStreamIsBadMagic) {
  const std::string junk(kFrameHeaderBytes, 'x');
  ASSERT_EQ(::write(wr_, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  close_wr();
  FrameType type = FrameType::kRequest;
  std::string payload;
  EXPECT_EQ(read_frame(rd_, type, payload), WireStatus::kBadMagic);
}

TEST_F(FramePipe, CheckpointFrameWriterMatchesTheFramedPayload) {
  std::string blob(40000, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<char>(i * 131 % 251);
  ASSERT_EQ(write_checkpoint_frame(wr_, 41, blob), WireStatus::kOk);
  close_wr();
  std::string got;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(rd_, buf, sizeof(buf))) > 0) {
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got, frame_bytes(FrameType::kCheckpoint,
                             encode_checkpoint_frame(41, blob)));
}

// --- fault-injected partial I/O -------------------------------------------
// POSIX pipes may deliver any prefix of a write, and any blocking syscall
// may return early with EINTR. The frame layer must treat both as normal
// weather: reassemble dribbled bytes, retry interrupted transfers, and
// still classify a genuinely dead stream as kTruncated, never as success.

// Captures a fully-encoded wire frame so the tests below can replay it one
// morsel at a time.
std::string capture_frame(FrameType type, const std::string& payload) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(write_frame(fds[1], type, payload), WireStatus::kOk);
  ::close(fds[1]);
  std::string frame;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    frame.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  return frame;
}

TEST_F(FramePipe, DribbledBytesReassembleIntoOneFrame) {
  const std::string frame =
      capture_frame(FrameType::kCheckpoint, encode_checkpoint_frame(3, "abc"));
  std::thread dribbler([this, &frame] {
    // Worst-case peer: one to five bytes at a time, with pauses straddling
    // every boundary the reader cares about (magic, header, payload, crc).
    std::size_t off = 0;
    while (off < frame.size()) {
      const std::size_t n = std::min<std::size_t>(1 + off % 5,
                                                  frame.size() - off);
      ASSERT_EQ(::write(wr_, frame.data() + off, n), static_cast<ssize_t>(n));
      off += n;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close_wr();
  });
  FrameType type = FrameType::kRequest;
  std::string payload;
  EXPECT_EQ(read_frame(rd_, type, payload), WireStatus::kOk);
  dribbler.join();
  EXPECT_EQ(type, FrameType::kCheckpoint);
  std::uint64_t step = 0;
  std::string blob;
  ASSERT_TRUE(decode_checkpoint_frame(payload, step, blob));
  EXPECT_EQ(step, 3u);
  EXPECT_EQ(blob, "abc");
}

TEST_F(FramePipe, DribbleThenDeathMidFrameIsTruncated) {
  const std::string frame =
      capture_frame(FrameType::kResult, std::string(1024, 'r'));
  std::thread dribbler([this, &frame] {
    // Deliver a prefix that ends inside the payload, then die.
    const std::size_t keep = kFrameHeaderBytes + 100;
    for (std::size_t off = 0; off < keep; off += 7) {
      const std::size_t n = std::min<std::size_t>(7, keep - off);
      ASSERT_EQ(::write(wr_, frame.data() + off, n), static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close_wr();
  });
  FrameType type = FrameType::kRequest;
  std::string payload;
  EXPECT_EQ(read_frame(rd_, type, payload), WireStatus::kTruncated);
  dribbler.join();
}

volatile std::sig_atomic_t g_usr1_hits = 0;
void count_usr1(int) { g_usr1_hits = g_usr1_hits + 1; }

// A signal storm interrupts both ends of a transfer big enough that every
// syscall blocks (the payload is many times the pipe buffer). The handler
// is installed WITHOUT SA_RESTART, so reads and writes genuinely fail with
// EINTR — the retry loops in write_frame/read_frame must absorb them.
TEST_F(FramePipe, EintrStormDoesNotCorruptOrAbortTheTransfer) {
  struct sigaction sa {};
  sa.sa_handler = count_usr1;
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  sigemptyset(&sa.sa_mask);
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);
  g_usr1_hits = 0;

  const std::string payload(4u << 20, 'p');  // 4 MiB >> 64 KiB pipe buffer
  WireStatus wstatus = WireStatus::kIoError;
  std::atomic<bool> done{false};

  std::thread writer([this, &payload, &wstatus] {
    wstatus = write_frame(wr_, FrameType::kCheckpoint, payload);
    close_wr();
  });
  std::thread pest([&done, &writer, self = pthread_self()] {
    for (int i = 0; i < 400 && !done.load(); ++i) {
      ::pthread_kill(writer.native_handle(), SIGUSR1);
      ::pthread_kill(self, SIGUSR1);  // the reading (main) thread
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  FrameType type = FrameType::kRequest;
  std::string got;
  const WireStatus rstatus = read_frame(rd_, type, got);
  done.store(true);
  pest.join();
  writer.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  EXPECT_GT(g_usr1_hits, 0);  // the storm really landed
  EXPECT_EQ(wstatus, WireStatus::kOk);
  ASSERT_EQ(rstatus, WireStatus::kOk);
  EXPECT_EQ(type, FrameType::kCheckpoint);
  EXPECT_EQ(got, payload);  // bit-identical despite every interruption
}

TEST_F(FramePipe, SilentPeerHitsTheDeadline) {
  FrameType type = FrameType::kRequest;
  std::string payload;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(read_frame(rd_, type, payload,
                       t0 + std::chrono::milliseconds(50)),
            WireStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(40));
}

// --- peer-vanished classification (kConnReset) ------------------------------
//
// EPIPE and ECONNRESET are the two faces of the same event — the peer is
// gone — reported at different moments: EPIPE when the kernel already knows
// at write time, ECONNRESET when a TCP peer closed with data still in
// flight (its close turns into an RST). Both must classify as the single
// transient WireStatus::kConnReset, never the terminal kIoError.

TEST(WireConnReset, IsNamedAndDiagnosesTransient) {
  EXPECT_STREQ(wire_status_name(WireStatus::kConnReset), "conn-reset");
  EXPECT_EQ(robustness::classify_diagnostic(Diagnostic::kConnReset),
            robustness::FailureKind::kTransient);
}

TEST(WireConnReset, EpipeOnWriteClassifiesAsConnReset) {
  ::signal(SIGPIPE, SIG_IGN);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);  // the reader is gone before we ever write

  // A payload far beyond the socket buffer, so even if the first write is
  // absorbed, a later one must observe the dead peer.
  const std::string payload(1u << 20, 'x');
  EXPECT_EQ(write_frame(sv[0], FrameType::kRequest, payload),
            WireStatus::kConnReset);
  ::close(sv[0]);
}

TEST(WireConnReset, TcpRstOnWriteClassifiesAsConnReset) {
  ::signal(SIGPIPE, SIG_IGN);
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)), 0);
  const int server = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server, 0);

  // The peer closes with our data UNREAD: its close emits an RST, and the
  // next writes observe ECONNRESET (possibly EPIPE on the one after — both
  // must land on kConnReset).
  ASSERT_EQ(write_frame(client, FrameType::kRequest, "unread"),
            WireStatus::kOk);
  ::close(server);

  WireStatus st = WireStatus::kOk;
  const std::string payload(1u << 20, 'y');
  for (int i = 0; i < 10 && st == WireStatus::kOk; ++i) {
    st = write_frame(client, FrameType::kRequest, payload);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(st, WireStatus::kConnReset);
  ::close(client);
  ::close(listen_fd);
}

TEST(WireConnReset, TcpRstOnReadClassifiesAsConnReset) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)), 0);
  const int server = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server, 0);

  // Abortive close: SO_LINGER with zero timeout turns close() into an RST
  // instead of an orderly FIN, so the client's pending read fails with
  // ECONNRESET rather than seeing EOF.
  struct linger lg {};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ASSERT_EQ(::setsockopt(server, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
  ::close(server);

  FrameType type = FrameType::kRequest;
  std::string payload;
  const WireStatus st = read_frame(
      client, type, payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  // kConnReset when the RST races ahead of the read; a clean kEof would
  // mean the RST path silently degraded to a FIN — reject that.
  EXPECT_EQ(st, WireStatus::kConnReset) << wire_status_name(st);
  ::close(client);
  ::close(listen_fd);
}

}  // namespace
}  // namespace pfact::serve
