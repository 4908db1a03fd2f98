// Socket front-end tests: round-trip correctness over Unix and TCP sockets,
// bit-equal equivalence to the in-process baseline, and the rejection
// matrix — every NetFaultPlan shape against every frame type must end in a
// classified FrontendStatus, never a crash, hang, or wrong answer.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/counters.h"
#include "obs/taxonomy.h"
#include "robustness/checkpoint.h"
#include "robustness/retry.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"
#include "serve/wire.h"

namespace pfact::serve {
namespace {

using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::FailureKind;
using robustness::ReductionTask;
using robustness::Substrate;
using robustness::detail::ByteWriter;

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

ReductionTask gem_xor_task() {
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, false}};
  return task;
}

// A distinct-per-id task family, so cache hits cannot mask a fresh run.
ReductionTask unique_chain_task(int id) {
  ReductionTask task;
  task.algorithm = Algorithm::kGep;
  task.u = 1 + id % 2;
  task.w = 1;
  task.depth = 2 + static_cast<std::size_t>(id % 7);
  return task;
}

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/pfact_fe_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter) + ".sock";
}

int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::string raw_frame(std::uint8_t type, std::string_view payload) {
  ByteWriter w;
  w.put_u32(kFrameMagic);
  w.put_u8(type);
  w.put_u64(payload.size());
  w.put_u32(robustness::crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

bool wait_until(const std::function<bool()>& cond,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

// One service + frontend on a fresh Unix socket, small but real.
struct Rig {
  explicit Rig(std::size_t max_connections = 32,
               std::chrono::milliseconds read_deadline =
                   std::chrono::milliseconds(400)) {
    ::signal(SIGPIPE, SIG_IGN);
    ServiceOptions so;
    so.dispatchers = 2;
    so.queue_depth = 8;
    so.cache_capacity = 64;
    so.pool.workers = 2;
    service = std::make_unique<ReductionService>(so);
    FrontendOptions fo;
    fo.unix_path = unique_socket_path();
    fo.max_connections = max_connections;
    fo.read_deadline = read_deadline;
    fo.write_deadline = std::chrono::milliseconds(2000);
    frontend = std::make_unique<Frontend>(*service, fo);
  }

  ClientOptions client_options() const {
    ClientOptions co;
    co.unix_path = frontend->unix_path();
    co.retry.max_attempts = 3;
    co.retry.base_delay = std::chrono::milliseconds(1);
    return co;
  }

  std::unique_ptr<ReductionService> service;
  std::unique_ptr<Frontend> frontend;
};

TEST(FrontendTaxonomy, EveryStatusIsNamedCountedDiagnosedAndSwept) {
  EXPECT_EQ(all_frontend_statuses().size(), 6u);
  for (FrontendStatus s : all_frontend_statuses()) {
    EXPECT_STRNE(frontend_status_name(s), "?");
    EXPECT_STRNE(obs::counter_name(frontend_status_counter(s)), "?");
    EXPECT_NE(diagnose_frontend_status(s), Diagnostic::kInternalError);
  }
  // The retry table the client acts on: malformed is the one fail-fast.
  EXPECT_EQ(robustness::classify_diagnostic(
                diagnose_frontend_status(FrontendStatus::kMalformedFrame)),
            FailureKind::kFatal);
  for (FrontendStatus s :
       {FrontendStatus::kDeadline, FrontendStatus::kConnReset,
        FrontendStatus::kOverloaded, FrontendStatus::kDraining}) {
    EXPECT_EQ(robustness::classify_diagnostic(diagnose_frontend_status(s)),
              FailureKind::kTransient)
        << frontend_status_name(s);
  }
}

TEST(FrontendTaxonomy, NetFaultShapesAreNamedAndSwept) {
  EXPECT_EQ(all_net_faults().size(), 6u);
  for (NetFault f : all_net_faults()) EXPECT_STRNE(net_fault_name(f), "?");
}

TEST(FrontendCodec, ResponseRoundTripsAndRejectsOutOfRangeOrdinals) {
  FrontendResponse resp;
  resp.status = FrontendStatus::kOverloaded;
  resp.admission = Admission::kShedQueueFull;
  resp.from_cache = false;
  resp.certified = true;
  resp.value = true;
  resp.certified_by = Substrate::kRational;
  resp.report.diagnostic = Diagnostic::kOverloaded;
  resp.report.detail = "shed";

  const std::string payload = encode_response(resp);
  FrontendResponse back;
  ASSERT_TRUE(decode_response(payload, back));
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.admission, resp.admission);
  EXPECT_EQ(back.certified, resp.certified);
  EXPECT_EQ(back.value, resp.value);
  EXPECT_EQ(back.certified_by, resp.certified_by);
  EXPECT_EQ(back.report.diagnostic, resp.report.diagnostic);
  EXPECT_EQ(back.report.detail, resp.report.detail);

  // Out-of-range status ordinal (byte 0 of the LE u32). Every ordinal of
  // every enum field is swept in test_wire.cpp
  // (Wire.EveryEnumFieldTakesEachOrdinalAndRefusesItsCount).
  std::string bad = payload;
  bad[0] = 99;
  EXPECT_FALSE(decode_response(bad, back));
  // Truncation at every boundary parses nowhere.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{9},
                          payload.size() - 1}) {
    EXPECT_FALSE(decode_response(std::string_view(payload).substr(0, cut),
                                 back))
        << cut;
  }
}

TEST(FrontendService, PendingNotifyOnDoneFiresExactlyOnce) {
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  auto pending = service.submit(gem_xor_task());
  std::atomic<int> fired{0};
  pending->notify_on_done([&] { ++fired; });
  pending->wait();
  EXPECT_TRUE(wait_until([&] { return fired.load() == 1; }));
  EXPECT_NE(pending->poll_response(), nullptr);
  // Registration after resolution fires immediately, still exactly once.
  std::atomic<int> late{0};
  pending->notify_on_done([&] { ++late; });
  EXPECT_EQ(late.load(), 1);
}

TEST(FrontendRoundTrip, UnixSocketServesACertifiedAnswerThenFromCache) {
  Rig rig;
  ASSERT_TRUE(rig.frontend->running());
  Client client(rig.client_options());

  const ReductionTask task = gem_xor_task();
  ClientResult first = client.submit(task);
  ASSERT_TRUE(first.ok) << frontend_status_name(first.status);
  EXPECT_EQ(first.status, FrontendStatus::kAccepted);
  EXPECT_EQ(first.attempts, 1u);
  EXPECT_TRUE(first.response.certified);
  EXPECT_EQ(first.response.value, task.expected());
  EXPECT_FALSE(first.response.from_cache);

  ClientResult second = client.submit(task);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.response.from_cache);
  EXPECT_EQ(second.response.value, task.expected());
  EXPECT_EQ(rig.frontend->stats().status(FrontendStatus::kAccepted), 2u);
}

TEST(FrontendRoundTrip, TcpLoopbackServesTheSameAnswer) {
  ::signal(SIGPIPE, SIG_IGN);
  ServiceOptions so;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.tcp = true;
  fo.tcp_port = 0;  // ephemeral
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());
  ASSERT_NE(frontend.tcp_port(), 0);

  ClientOptions co;
  co.tcp = true;
  co.tcp_port = frontend.tcp_port();
  Client client(co);
  ClientResult r = client.submit(gem_xor_task());
  ASSERT_TRUE(r.ok) << frontend_status_name(r.status);
  EXPECT_EQ(r.response.value, gem_xor_task().expected());
}

TEST(FrontendRoundTrip, SocketAnswerDecodesBitEqualToInProcessBaseline) {
  // In-process baseline: the same supervised path a direct caller takes.
  WarmPoolOptions po;
  po.workers = 1;
  WarmPool pool(po);
  const ReductionTask task = gem_xor_task();
  const SupervisedReport baseline = supervised_run(pool, task, {});
  ASSERT_TRUE(baseline.certified);

  Rig rig;
  Client client(rig.client_options());
  ClientResult r = client.submit(task);
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.response.certified);
  EXPECT_EQ(r.response.value, baseline.value);
  EXPECT_EQ(r.response.certified_by, baseline.certified_by);
  const robustness::RunReport& got = r.response.report;
  const robustness::RunReport& want = baseline.final_report;
  EXPECT_EQ(got.diagnostic, want.diagnostic);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.decoded_entry, want.decoded_entry);  // bit-equal
  EXPECT_EQ(got.steps_used, want.steps_used);
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < want.trace.size(); ++i) {
    EXPECT_EQ(got.trace[i].column, want.trace[i].column);
    EXPECT_EQ(got.trace[i].pivot_pos, want.trace[i].pivot_pos);
    EXPECT_EQ(got.trace[i].pivot_row, want.trace[i].pivot_row);
    EXPECT_EQ(got.trace[i].action, want.trace[i].action);
  }
}

// The rejection matrix: every NetFault shape x every frame type. The
// contract is classification, not success: each cell must end in exactly
// one FrontendStatus (observable via the server's stats or the client's
// decoded response), and the server must still serve cleanly afterwards.
TEST(FrontendRejectionMatrix, EveryFaultShapeTimesEveryFrameTypeClassifies) {
  ::signal(SIGPIPE, SIG_IGN);
  Rig rig(32, std::chrono::milliseconds(250));
  obs::ScopedCounters sc;
  TaskRequest req;
  req.task = gem_xor_task();
  const std::string payload = encode_request(req);

  // kRequest, kCheckpoint, kResult, kResponse, and an unknown ordinal.
  const std::vector<std::uint8_t> frame_types = {1, 2, 3, 4, 9};
  std::uint64_t expect_resets = 0;

  for (NetFault fault : all_net_faults()) {
    if (fault == NetFault::kNone) continue;
    for (std::uint8_t type : frame_types) {
      SCOPED_TRACE(std::string(net_fault_name(fault)) + " x type " +
                   std::to_string(type));
      const std::string frame = raw_frame(type, payload);
      const int fd = raw_connect(rig.frontend->unix_path());
      ASSERT_GE(fd, 0);

      bool expect_response = true;
      FrontendStatus want = FrontendStatus::kMalformedFrame;
      switch (fault) {
        case NetFault::kNone:
        case NetFault::kCount_:
          break;
        case NetFault::kTornFrame:
          // Header plus half the payload, then vanish. With a valid request
          // header the server waits for the payload and the EOF is a
          // deterministic kConnReset; a refused type races the refusal write
          // against our close, so only type 1 is counted below.
          write_all(fd, frame.data(),
                    kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2);
          expect_response = false;
          if (type == 1) ++expect_resets;
          break;
        case NetFault::kMidFrameClose:
          // Die INSIDE the header: the server never even has a declared
          // length to wait for, so every type is a deterministic reset.
          write_all(fd, frame.data(), kFrameHeaderBytes / 2);
          expect_response = false;
          ++expect_resets;
          break;
        case NetFault::kDribble:
          for (std::size_t i = 0; i < frame.size(); ++i) {
            if (!write_all(fd, frame.data() + i, 1)) break;  // early refusal
          }
          // A dribbled REQUEST must still be served: partial-read proof.
          want = type == 1 ? FrontendStatus::kAccepted
                           : FrontendStatus::kMalformedFrame;
          break;
        case NetFault::kStalledReader:
          // A started frame that never completes: the slowloris. Nothing
          // more is written; the server's read deadline must evict. A
          // non-request type is refused at the header, before the stall
          // can matter.
          write_all(fd, frame.data(),
                    kFrameHeaderBytes + (frame.size() - kFrameHeaderBytes) / 2);
          want = type == 1 ? FrontendStatus::kDeadline
                           : FrontendStatus::kMalformedFrame;
          break;
        case NetFault::kGarbagePreamble: {
          const std::string junk(32, '\xAB');  // 0xAB never starts a magic
          write_all(fd, junk.data(), junk.size());
          want = FrontendStatus::kMalformedFrame;
          break;
        }
      }

      if (expect_response) {
        FrameType rtype = FrameType::kRequest;
        std::string rpayload;
        const WireStatus st =
            read_frame(fd, rtype, rpayload,
                       std::chrono::steady_clock::now() +
                           std::chrono::seconds(10));
        ASSERT_EQ(st, WireStatus::kOk) << wire_status_name(st);
        ASSERT_EQ(rtype, FrameType::kResponse);
        FrontendResponse resp;
        ASSERT_TRUE(decode_response(rpayload, resp));
        EXPECT_EQ(resp.status, want)
            << frontend_status_name(resp.status);
        if (resp.status == FrontendStatus::kAccepted) {
          EXPECT_TRUE(resp.certified);
          EXPECT_EQ(resp.value, req.task.expected());
        } else {
          // Classified refusals carry the mapped diagnostic.
          EXPECT_EQ(resp.report.diagnostic,
                    diagnose_frontend_status(resp.status));
        }
      }
      ::close(fd);
    }
  }

  // Every torn/mid-frame close must have been counted as a conn-reset.
  EXPECT_TRUE(wait_until([&] {
    return rig.frontend->stats().status(FrontendStatus::kConnReset) >=
           expect_resets;
  })) << rig.frontend->stats().status(FrontendStatus::kConnReset);

  // The server survived the whole matrix: full coverage of the refusal
  // statuses, and a clean request still round-trips.
  const Frontend::Stats stats = rig.frontend->stats();
  EXPECT_GT(stats.status(FrontendStatus::kMalformedFrame), 0u);
  EXPECT_GT(stats.status(FrontendStatus::kDeadline), 0u);
  EXPECT_GT(stats.status(FrontendStatus::kConnReset), 0u);
  EXPECT_GT(stats.status(FrontendStatus::kAccepted), 0u);
  // Each ending also bumped its own counter. The bump precedes the stats
  // increment, so a counter can run ahead of the stats but never behind.
  const obs::CounterDelta d = sc.delta();
  if (kObsOn) {
    EXPECT_GE(d[obs::Counter::kFrontendMalformed],
              stats.status(FrontendStatus::kMalformedFrame));
    EXPECT_GE(d[obs::Counter::kFrontendDeadlineEvictions],
              stats.status(FrontendStatus::kDeadline));
    EXPECT_GE(d[obs::Counter::kFrontendConnResets],
              stats.status(FrontendStatus::kConnReset));
    EXPECT_GE(d[obs::Counter::kFrontendAccepted],
              stats.status(FrontendStatus::kAccepted));
  }
  Client client(rig.client_options());
  ClientResult after = client.submit(gem_xor_task());
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.response.value, gem_xor_task().expected());
}

TEST(FrontendDeadlines, SlowlorisIsEvictedWithAClassifiedResponse) {
  Rig rig(32, std::chrono::milliseconds(200));
  const int fd = raw_connect(rig.frontend->unix_path());
  ASSERT_GE(fd, 0);
  // Five header bytes, then silence.
  TaskRequest slow_req;
  slow_req.task = gem_xor_task();
  const std::string frame = raw_frame(1, encode_request(slow_req));
  ASSERT_TRUE(write_all(fd, frame.data(), 5));

  FrameType type = FrameType::kRequest;
  std::string payload;
  const WireStatus st = read_frame(
      fd, type, payload,
      std::chrono::steady_clock::now() + std::chrono::seconds(5));
  ASSERT_EQ(st, WireStatus::kOk);
  ASSERT_EQ(type, FrameType::kResponse);
  FrontendResponse resp;
  ASSERT_TRUE(decode_response(payload, resp));
  EXPECT_EQ(resp.status, FrontendStatus::kDeadline);
  EXPECT_EQ(resp.report.diagnostic, Diagnostic::kDeadlineExceeded);
  ::close(fd);
  EXPECT_EQ(rig.frontend->stats().status(FrontendStatus::kDeadline), 1u);
}

TEST(FrontendOverload, ConnectionBoundShedsWithClassifiedRefusal) {
  Rig rig(/*max_connections=*/1);
  obs::ScopedCounters sc;
  // One idle connection pins the only slot.
  const int holder = raw_connect(rig.frontend->unix_path());
  ASSERT_GE(holder, 0);
  // The holder registers with the event loop before the next accept.
  ASSERT_TRUE(wait_until([&] {
    return rig.frontend->stats().conns_accepted >= 1;
  }));

  ClientOptions co = rig.client_options();
  co.retry.max_attempts = 2;
  Client client(co);
  ClientResult shed = client.submit(gem_xor_task());
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.status, FrontendStatus::kOverloaded);
  EXPECT_EQ(shed.diagnostic, Diagnostic::kOverloaded);
  EXPECT_EQ(shed.outcome, FailureKind::kTransient);
  EXPECT_EQ(shed.attempts, 2u);  // retried, still shed

  ::close(holder);
  ASSERT_TRUE(wait_until([&] {
    return rig.frontend->stats().clean_closes >= 1;
  }));
  ClientResult ok = client.submit(gem_xor_task());
  ASSERT_TRUE(ok.ok);  // the slot freed; the same client now succeeds
  EXPECT_GE(rig.frontend->stats().status(FrontendStatus::kOverloaded), 2u);
  if (kObsOn) {
    EXPECT_GE(sc.delta()[obs::Counter::kFrontendOverloadSheds], 2u);
  }
}

TEST(FrontendDrain, RefusesMidDrainRequestsAndFinishesInFlight) {
  Rig rig;
  obs::ScopedCounters sc;
  Client client(rig.client_options());
  ASSERT_TRUE(client.submit(gem_xor_task()).ok);

  // A connection caught mid-frame when the drain starts: its request must
  // still be answered — with kDraining, not silence.
  const int fd = raw_connect(rig.frontend->unix_path());
  ASSERT_GE(fd, 0);
  TaskRequest req;
  req.task = gem_xor_task();
  const std::string frame = raw_frame(1, encode_request(req));
  ASSERT_TRUE(write_all(fd, frame.data(), kFrameHeaderBytes + 4));
  ASSERT_TRUE(wait_until([&] {
    return rig.frontend->stats().conns_accepted >= 2;
  }));

  rig.frontend->begin_drain();
  ASSERT_TRUE(write_all(fd, frame.data() + kFrameHeaderBytes + 4,
                        frame.size() - kFrameHeaderBytes - 4));

  FrameType type = FrameType::kRequest;
  std::string payload;
  ASSERT_EQ(read_frame(fd, type, payload,
                       std::chrono::steady_clock::now() +
                           std::chrono::seconds(5)),
            WireStatus::kOk);
  FrontendResponse resp;
  ASSERT_TRUE(decode_response(payload, resp));
  EXPECT_EQ(resp.status, FrontendStatus::kDraining);
  EXPECT_EQ(resp.report.diagnostic, Diagnostic::kCancelled);
  ::close(fd);

  EXPECT_TRUE(wait_until([&] { return rig.frontend->drained(); }));
  EXPECT_GE(rig.frontend->stats().status(FrontendStatus::kDraining), 1u);
  if (kObsOn) {
    EXPECT_GE(sc.delta()[obs::Counter::kFrontendDrainRefusals], 1u);
  }
  // Draining stopped the listener: new connections are refused outright.
  EXPECT_LT(raw_connect(rig.frontend->unix_path()), 0);
  ClientResult post = client.submit(gem_xor_task());
  EXPECT_FALSE(post.ok);
}

TEST(FrontendDrain, SigtermInstallsAndTriggersGracefulDrain) {
  Frontend::install_sigterm_drain();
  Rig rig;
  Client client(rig.client_options());
  ASSERT_TRUE(client.submit(gem_xor_task()).ok);

  ::raise(SIGTERM);
  EXPECT_TRUE(wait_until([&] { return rig.frontend->drained(); }));
  Frontend::reset_sigterm_for_testing();

  // Default disposition back on, so a later real SIGTERM is not swallowed.
  ::signal(SIGTERM, SIG_DFL);
}

TEST(FrontendClient, RetriesThroughATornFrameToACertifiedAnswer) {
  Rig rig;
  ClientOptions co = rig.client_options();
  co.fault.fault = NetFault::kTornFrame;
  co.fault.seed = 7;
  co.fault.on_attempt = 1;
  Client client(co);

  ClientResult r = client.submit(unique_chain_task(1));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2u);  // sabotaged once, clean retry succeeded
  ASSERT_EQ(r.backoffs.size(), 1u);
  EXPECT_EQ(r.backoffs[0], co.retry.backoff(1));
  EXPECT_EQ(r.response.value, unique_chain_task(1).expected());
}

TEST(FrontendClient, DribbleSucceedsFirstAttemptProvingPartialReads) {
  Rig rig;
  ClientOptions co = rig.client_options();
  co.fault.fault = NetFault::kDribble;
  co.fault.on_attempt = 1;
  Client client(co);
  ClientResult r = client.submit(gem_xor_task());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 1u);  // no retry needed: dribble is slow, not wrong
}

TEST(FrontendClient, BackoffMirrorsRetryPolicyBitForBit) {
  // Nobody listening: every attempt is a transient kConnReset.
  ClientOptions co;
  co.unix_path = unique_socket_path();  // never bound
  co.retry.max_attempts = 4;
  co.retry.base_delay = std::chrono::milliseconds(10);
  co.retry.jitter_seed = 123;
  std::vector<std::chrono::milliseconds> slept;
  co.sleeper = [&](std::chrono::milliseconds d) { slept.push_back(d); };
  Client client(co);

  ClientResult r = client.submit(gem_xor_task());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, FrontendStatus::kConnReset);
  EXPECT_EQ(r.diagnostic, Diagnostic::kConnReset);
  EXPECT_EQ(r.outcome, FailureKind::kTransient);
  EXPECT_EQ(r.attempts, 4u);
  ASSERT_EQ(slept.size(), 3u);
  for (std::size_t i = 0; i < slept.size(); ++i) {
    EXPECT_EQ(slept[i], co.retry.backoff(i + 1)) << i;  // bit-reproducible
  }
  EXPECT_EQ(r.backoffs, slept);
}

// --- connection reuse ----------------------------------------------------------

TEST(FrontendReuse, OneClientKeepsOneConnectionAcrossSubmits) {
  Rig rig;
  Client client(rig.client_options());
  for (int i = 0; i < 20; ++i) {
    const ClientResult r = client.submit(gem_xor_task());
    ASSERT_TRUE(r.ok) << i << ": " << frontend_status_name(r.status);
    EXPECT_EQ(r.attempts, 1u);
  }
  EXPECT_EQ(rig.frontend->stats().conns_accepted, 1u);
  EXPECT_EQ(rig.frontend->stats().status(FrontendStatus::kAccepted), 20u);
}

TEST(FrontendReuse, ThreadsSharingOneClientOpenAtMostOneSocketEach) {
  Rig rig;
  Client client(rig.client_options());
  ASSERT_TRUE(client.submit(gem_xor_task()).ok);  // later submits hit cache
  constexpr int kThreads = 8;
  constexpr int kSubmits = 20;
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSubmits; ++i) {
        const ClientResult r = client.submit(gem_xor_task());
        if (r.ok && r.response.value == gem_xor_task().expected()) {
          ++answered;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(answered.load(), kThreads * kSubmits);
  EXPECT_LE(rig.frontend->stats().conns_accepted,
            static_cast<std::uint64_t>(kThreads));
}

// A job whose only worker spins until the watchdog kills it: it holds the
// service's one dispatcher for the watchdog window.
JobOptions wedge_job(std::chrono::milliseconds watchdog) {
  JobOptions job;
  job.kill_for_attempt = [](std::size_t attempt) {
    KillPlan kill;
    if (attempt == 1) kill.mode = KillPlan::Mode::kSpin;
    return kill;
  };
  job.watchdog = watchdog;
  return job;
}

TEST(FrontendReuse, RefusalClosesTheReusedSocket) {
  ::signal(SIGPIPE, SIG_IGN);
  ServiceOptions so;
  so.dispatchers = 1;
  so.queue_depth = 1;
  so.pool.workers = 1;
  so.supervisor.retry.max_attempts = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path = unique_socket_path();
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());
  ClientOptions co;
  co.unix_path = fo.unix_path;
  co.retry.max_attempts = 1;  // a retry would connect afresh
  Client client(co);
  ASSERT_TRUE(client.submit(gem_xor_task()).ok);

  // Wedge the one dispatcher, then fill the one queue slot: a filler is
  // admitted only once the wedge has left the queue for the dispatcher.
  auto wedge = service.submit(unique_chain_task(1),
                              wedge_job(std::chrono::milliseconds(500)));
  std::shared_ptr<ReductionService::Pending> filler;
  ASSERT_TRUE(wait_until([&] {
    filler = service.submit(unique_chain_task(2));
    const ServiceResponse* shed = filler->poll_response();
    return shed == nullptr || shed->admission != Admission::kShedQueueFull;
  }));
  const ClientResult refused = client.submit(gem_xor_task());
  EXPECT_EQ(refused.status, FrontendStatus::kOverloaded);
  EXPECT_EQ(frontend.stats().conns_accepted, 1u)
      << "the refusal must arrive on the reused socket";

  wedge->wait();
  filler->wait();
  const ClientResult after = client.submit(gem_xor_task());
  ASSERT_TRUE(after.ok) << frontend_status_name(after.status);
  EXPECT_EQ(frontend.stats().conns_accepted, 2u)
      << "a refused socket must be closed, not reused";
}

TEST(FrontendReuse, DrainClosesAKeptSocketWhoseJobWasInFlight) {
  ::signal(SIGPIPE, SIG_IGN);
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path = unique_socket_path();
  // Every job's first worker spins until the watchdog kills it and the
  // supervisor's retry answers, so a submit stays in flight for 300 ms.
  fo.job = wedge_job(std::chrono::milliseconds(300));
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());
  ClientOptions co;
  co.unix_path = fo.unix_path;
  co.retry.max_attempts = 1;
  Client client(co);

  ClientResult slow;
  std::thread submitter([&] { slow = client.submit(unique_chain_task(1)); });
  EXPECT_TRUE(wait_until([&] { return service.stats().accepted >= 1; }));
  frontend.begin_drain();
  submitter.join();
  ASSERT_TRUE(slow.ok) << frontend_status_name(slow.status);
  EXPECT_EQ(slow.response.value, unique_chain_task(1).expected());
  // The client keeps the answered socket for reuse; the drain must still
  // close it and finish while the client is alive.
  EXPECT_TRUE(wait_until([&] { return frontend.drained(); }));
}

TEST(FrontendReuse, ReplacedFrontendCostsOneSilentReconnect) {
  Rig rig;
  Client client(rig.client_options());
  ASSERT_TRUE(client.submit(gem_xor_task()).ok);

  // Drain and replace the frontend at the same path: its drain closes the
  // client's idle socket, which the next submit finds dead.
  const std::string path = rig.frontend->unix_path();
  rig.frontend.reset();
  FrontendOptions fo;
  fo.unix_path = path;
  rig.frontend = std::make_unique<Frontend>(*rig.service, fo);
  ASSERT_TRUE(rig.frontend->running());

  obs::ScopedCounters sc;
  const ClientResult r = client.submit(gem_xor_task());
  ASSERT_TRUE(r.ok) << frontend_status_name(r.status);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_TRUE(r.backoffs.empty());
  EXPECT_EQ(r.response.value, gem_xor_task().expected());
  EXPECT_EQ(rig.frontend->stats().conns_accepted, 1u);
  if (kObsOn) {
    const obs::CounterDelta d = sc.delta();
    EXPECT_EQ(d[obs::Counter::kClientStaleReconnects], 1u);
    EXPECT_EQ(d[obs::Counter::kClientRetries], 0u);
  }
}

}  // namespace
}  // namespace pfact::serve
