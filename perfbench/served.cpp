// The served workloads (reduce-fresh, reduce-repeat) and the served layer
// suite.
//
// End to end, client threads call ShardRouter::submit in a closed loop
// against a 2-shard fleet. The layer suite replays the same seeded streams
// through one public call per layer, each wrapping the one below it:
//
//   fresh keys:  build_gem_reduction[_sparse] < run_on_substrate (k=0)
//                < run_on_substrate (k=8) < resilient_run < supervised_run
//                on a WarmPool < ReductionService::run < Client::submit
//                < ShardRouter::submit (1 shard)
//   cached keys: ResultCache::lookup < ReductionService::run
//                < Client::submit < ShardRouter::submit (1 shard)
//
// A layer's cost is the median of its call minus the median of the call it
// wraps, so each stack sums to its top call's median by construction.
//
// Every router forks its shards before any in-process Frontend exists: a
// shard forked from a process that already hosts a Frontend is a known
// serve-layer fault, and the benchmark must not depend on it.

#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <thread>

#include "common.h"
#include "core/assembler.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "robustness/resilient_run.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"
#include "serve/wire.h"
#include "stream.h"

namespace pfbench {

namespace rb = pfact::robustness;
namespace sv = pfact::serve;

namespace {

constexpr std::uint64_t kFreshWarmup = 4;     // fresh indices [0, 4)
constexpr std::uint64_t kRepeatWarmup = 512;  // repeat indices [0, 512)

// One shard's service: 1 dispatcher, 1 warm worker, checkpoint every 8
// steps, default cache capacity (128).
sv::ServiceOptions service_options() {
  sv::ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  so.supervisor.checkpoint_every = 8;
  return so;
}

sv::RouterOptions fleet_options(const Options& opt, std::size_t shards) {
  sv::RouterOptions ro;
  ro.shards = shards;
  ro.service = service_options();
  ro.socket_dir = opt.sock_dir;
  // A finer heartbeat than the 50 ms default, so wait_all_serving (part of
  // setup_s) is not quantized to whole probe rounds.
  ro.probe_interval = std::chrono::milliseconds{10};
  return ro;
}

// What any layer's call answered, normalized across the result types.
struct Outcome {
  bool answered = false;  // certified answer delivered
  bool value = false;
  bool from_cache = false;
};

Outcome of(const sv::RouteResult& r) {
  const bool ok = (r.status == sv::RouterStatus::kRouted ||
                   r.status == sv::RouterStatus::kFailedOver) &&
                  r.response.status == sv::FrontendStatus::kAccepted &&
                  r.response.certified;
  return {ok, r.response.value, r.response.from_cache};
}
Outcome of(const sv::ClientResult& r) {
  return {r.ok && r.response.certified, r.response.value,
          r.response.from_cache};
}
Outcome of(const sv::ServiceResponse& r) {
  return {r.admission == sv::Admission::kAccepted && r.report.certified,
          r.report.value, r.from_cache};
}

struct LoopResult {
  std::vector<double> lat_ms;    // answered requests
  std::vector<double> done_s;    // their completion, seconds into the loop
  std::vector<double> novel_ms;  // answered first-seen keys (repeat stream)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t from_cache = 0;
  double elapsed_s = 0;
  std::uint64_t next = 0;  // first index the loop did not take

  void merge(const LoopResult& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    novel_ms.insert(novel_ms.end(), o.novel_ms.begin(), o.novel_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    from_cache += o.from_cache;
  }
};

using Call = std::function<Outcome(const Request&)>;

// Closed loop: `clients` threads take the next index from a shared counter
// and call `call` until `end` (exclusive) is reached or `deadline` passes.
// A certified answer is checked against the request's expected value;
// anything else counts as failed.
template <class Stream>
LoopResult closed_loop(const Stream& s, std::uint64_t begin, std::uint64_t end,
                       Clock::time_point deadline, std::size_t clients,
                       const Call& call, Checker& check, const char* rig) {
  std::atomic<std::uint64_t> next{begin};
  std::vector<LoopResult> per(clients);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per[c];
      while (check.ok() && Clock::now() < deadline) {
        const std::uint64_t i = next.fetch_add(1);
        if (i >= end) break;
        const Request r = s.at(i);
        const auto t = Clock::now();
        const Outcome o = call(r);
        const double ms = ms_since(t);
        ++mine.attempted;
        if (!o.answered) {
          ++mine.failed;
          continue;
        }
        check.check(o.value == r.expected,
                    std::string(rig) + " request " + std::to_string(i) + " (" +
                        r.family + ")");
        mine.lat_ms.push_back(ms);
        mine.done_s.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        if (r.novel) mine.novel_ms.push_back(ms);
        if (o.from_cache) ++mine.from_cache;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult all;
  for (const LoopResult& p : per) all.merge(p);
  all.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  all.next = std::min(next.load(), end);
  return all;
}

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

Call via_router(sv::ShardRouter& router) {
  return [&router](const Request& r) { return of(router.submit(r.task)); };
}

// A served fleet ready for measurement: forked, probed healthy, warmed.
struct Fleet {
  std::unique_ptr<sv::ShardRouter> router;
  double setup_s = 0;
};

Fleet start_fleet(const Options& opt, bool fresh, Checker& check) {
  Fleet f;
  const auto t0 = Clock::now();
  f.router = std::make_unique<sv::ShardRouter>(fleet_options(opt, 2));
  if (!check.require(f.router->wait_all_serving(std::chrono::seconds(20)),
                   "fleet start (wait_all_serving)")) {
    return f;
  }
  if (fresh) {
    closed_loop(FreshStream(opt.seed), 0, kFreshWarmup, kNoDeadline, 2,
                via_router(*f.router), check, "warm-up");
  } else {
    closed_loop(RepeatStream(opt.seed), 0, kRepeatWarmup, kNoDeadline, 3,
                via_router(*f.router), check, "warm-up");
  }
  f.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return f;
}

// --- the layer rigs ----------------------------------------------------------

// The fresh-stack replay set: the GEM/GEMS requests of the fresh stream
// after its warm-up range (chains have no circuit to assemble).
std::vector<Request> fresh_stack_requests(std::uint64_t seed, std::size_t n) {
  FreshStream s(seed);
  std::vector<Request> out;
  for (std::uint64_t i = kFreshWarmup; out.size() < n; ++i) {
    Request r = s.at(i);
    if (r.task.algorithm == rb::Algorithm::kGem ||
        r.task.algorithm == rb::Algorithm::kGems) {
      out.push_back(std::move(r));
    }
  }
  return out;
}

// The cached-stack key set: the most popular repeat-stream instances.
std::vector<Request> hit_stack_requests(std::uint64_t seed, std::size_t n) {
  RepeatStream s(seed);
  std::vector<Request> out;
  for (std::size_t k = 0; k < n; ++k) out.push_back(s.popular(k));
  return out;
}

}  // namespace

void run_served(const Options& opt, Checker& check, Report& out) {
  const bool fresh = opt.workload == "reduce-fresh";
  const std::size_t clients = fresh ? 2 : 3;
  const std::uint64_t first = fresh ? kFreshWarmup : kRepeatWarmup;
  const FreshStream fresh_stream(opt.seed);
  const RepeatStream repeat_stream(opt.seed);

  if (opt.trace) {
    // Tracing gap: two identical fleets receive the same requests, one call
    // each per request, in alternating order; spans are collected only
    // around fleet B's calls. Both fleets fork with tracing off.
    Fleet a = start_fleet(opt, fresh, check);
    Fleet b = start_fleet(opt, fresh, check);
    if (!check.ok()) return;
    const std::uint64_t k = opt.smoke ? (fresh ? 8 : 200) : (fresh ? 96 : 2000);
    std::vector<double> off, on;
    for (std::uint64_t i = first; i < first + k && check.ok(); ++i) {
      const Request r = fresh ? fresh_stream.at(i) : repeat_stream.at(i);
      for (int leg = 0; leg < 2; ++leg) {
        const bool traced = (leg == 0) == (i % 2 == 1);
        pfact::obs::set_tracing_enabled(traced);
        const auto t = Clock::now();
        const Outcome o = of((traced ? b : a).router->submit(r.task));
        (traced ? on : off).push_back(ms_since(t));
        pfact::obs::set_tracing_enabled(false);
        ++out.attempted;
        if (!o.answered) {
          ++out.failed;
        } else {
          check.check(o.value == r.expected,
                      "trace-gap request " + std::to_string(i));
        }
      }
      pfact::obs::clear_spans();
    }
    const double p50_off = median(off), p50_on = median(on);
    out.metric("trace.gap_pct", 100.0 * (p50_on / p50_off - 1.0), "%");
    out.info("trace-gap untraced_p50_ms=" + std::to_string(p50_off) +
             " traced_p50_ms=" + std::to_string(p50_on) +
             " requests=" + std::to_string(k));
    return;
  }

  // Set up several times (fresh fleet each time) and keep the last.
  std::vector<double> setups;
  Fleet fleet;
  for (int s = 0; s < (opt.smoke ? 1 : 7) && check.ok(); ++s) {
    fleet = Fleet{};  // tear the previous fleet down first
    fleet = start_fleet(opt, fresh, check);
    setups.push_back(fleet.setup_s);
  }
  if (!check.ok()) return;

  // Warm up on the stream itself; the timed loop continues where it ended.
  const Call call = via_router(*fleet.router);
  auto loop = [&](std::uint64_t begin, Clock::time_point deadline) {
    return fresh ? closed_loop(fresh_stream, begin, UINT64_MAX, deadline,
                               clients, call, check, opt.workload.c_str())
                 : closed_loop(repeat_stream, begin, UINT64_MAX, deadline,
                               clients, call, check, opt.workload.c_str());
  };
  const LoopResult warm = loop(first, deadline_after(warmup_seconds(opt.smoke)));
  out.attempted += warm.attempted;
  out.failed += warm.failed;
  const LoopResult r = loop(warm.next, deadline_after(opt.seconds));
  const sv::ShardRouter::Stats rs = fleet.router->stats();
  fleet = Fleet{};

  out.attempted += r.attempted;
  out.failed += r.failed;
  // A slowdown of the shared host lasts seconds: each metric is the median
  // over kWindows equal slices of the timed loop (by completion time), so
  // one slow slice does not move it.
  constexpr std::size_t kWindows = 5;
  const double width_s = r.elapsed_s / kWindows;
  std::vector<std::vector<double>> window_ms(kWindows);
  for (std::size_t k = 0; k < r.lat_ms.size(); ++k) {
    const std::size_t w = std::min(
        kWindows - 1, static_cast<std::size_t>(r.done_s[k] / width_s));
    window_ms[w].push_back(r.lat_ms[k]);
  }
  std::vector<double> rps, p50, p99;
  Tail tail;
  for (const std::vector<double>& ms : window_ms) {
    tail = tail_latency(ms);
    rps.push_back(static_cast<double>(ms.size()) / width_s);
    p50.push_back(median(ms));
    p99.push_back(tail.value);
  }
  out.metric("setup_s", median(setups), "s");
  out.metric("throughput_rps", median(rps), "1/s");
  out.metric("latency_p50_ms", median(p50), "ms");
  out.metric("latency_p99_ms", median(p99), "ms");
  out.info("medians over " + std::to_string(kWindows) + " windows of " +
           std::to_string(width_s) + " s; latency_p99_ms is p" +
           std::to_string(100 * tail.percentile) + " of the last window's " +
           std::to_string(tail.samples) + " answered requests");
  out.info("cache_hit_ratio=" +
           std::to_string(r.lat_ms.empty() ? 0.0
                                           : static_cast<double>(r.from_cache) /
                                                 r.lat_ms.size()) +
           " router_home_share=" +
           std::to_string(rs.answered ? static_cast<double>(rs.answered_by_home) /
                                            rs.answered
                                      : 0.0) +
           (fresh ? "" : " novel_p50_ms=" + std::to_string(median(r.novel_ms))) +
           " requests=" + std::to_string(r.attempted));
}

void served_layers(const Options& opt, Checker& check, Report& out) {
  const std::size_t n_fresh = opt.smoke ? 6 : 32;
  const std::size_t fresh_passes = opt.smoke ? 1 : 3;
  const std::size_t n_hit = opt.smoke ? 16 : 64;
  const std::size_t hit_passes = opt.smoke ? 2 : 8;
  const std::vector<Request> fresh = fresh_stack_requests(opt.seed, n_fresh);
  const std::vector<Request> hits = hit_stack_requests(opt.seed, n_hit);

  // Fleet behaviour on the repeat stream: hit ratio, home share, misses.
  {
    Fleet f = start_fleet(opt, /*fresh=*/false, check);
    if (!check.ok()) return;
    const std::uint64_t n = opt.smoke ? 400 : 4000;
    const LoopResult r =
        closed_loop(RepeatStream(opt.seed), kRepeatWarmup, kRepeatWarmup + n,
                    kNoDeadline, 3, via_router(*f.router), check, "fleet");
    const sv::ShardRouter::Stats rs = f.router->stats();
    out.metric("serve.cache_hit_ratio",
               static_cast<double>(r.from_cache) / r.lat_ms.size(), "ratio");
    out.metric("serve.router_home_share",
               static_cast<double>(rs.answered_by_home) / rs.answered, "ratio");
    out.metric("serve.miss_ms", median(r.novel_ms), "ms");
  }

  // The stacks. Both 1-shard routers fork before any Frontend exists. The
  // fresh stack runs with caches off, so each request can be replayed
  // `fresh_passes` times; the cached stack keeps the default cache.
  sv::ServiceOptions no_cache = service_options();
  no_cache.cache_capacity = 0;
  sv::RouterOptions fresh_fleet = fleet_options(opt, 1);
  fresh_fleet.service = no_cache;
  sv::ShardRouter router_fresh(fresh_fleet);
  sv::ShardRouter router_hit(fleet_options(opt, 1));
  if (!check.require(router_fresh.wait_all_serving(std::chrono::seconds(20)) &&
                       router_hit.wait_all_serving(std::chrono::seconds(20)),
                   "1-shard router start")) {
    return;
  }
  sv::ReductionService svc_fresh(no_cache);
  sv::ReductionService svc_hit(service_options());
  const std::string sock_prefix =
      opt.sock_dir + "/pfbench_" + std::to_string(::getpid());
  sv::FrontendOptions fo_fresh, fo_hit;
  fo_fresh.unix_path = sock_prefix + "_fresh.sock";
  fo_hit.unix_path = sock_prefix + "_hit.sock";
  sv::Frontend front_fresh(svc_fresh, fo_fresh);
  sv::Frontend front_hit(svc_hit, fo_hit);
  if (!check.require(front_fresh.running() && front_hit.running(),
                   "frontend bind")) {
    return;
  }
  sv::ClientOptions co_fresh, co_hit;
  co_fresh.unix_path = fo_fresh.unix_path;
  co_hit.unix_path = fo_hit.unix_path;
  sv::Client client_fresh(co_fresh);
  sv::Client client_hit(co_hit);
  sv::WarmPool pool(service_options().pool);

  using pfact::obs::CounterDelta;
  CounterDelta k0_counters, k8_counters;
  auto add = [](CounterDelta& sum, const CounterDelta& d) {
    for (std::size_t i = 0; i < pfact::obs::kNumCounters; ++i)
      sum.counts[i] += d.counts[i];
  };
  struct Rig {
    const char* name;
    Call call;
  };
  // Fresh stack, bottom to top.
  const std::vector<Rig> stack = {
      {"assemble",
       [](const Request& r) {
         const std::size_t rows =
             r.task.backend == rb::Backend::kSparse
                 ? pfact::core::build_gem_reduction_sparse(r.task.instance)
                       .matrix.rows()
                 : pfact::core::build_gem_reduction(r.task.instance)
                       .matrix.rows();
         return Outcome{rows > 0, r.expected, false};
       }},
      {"run_on_substrate k=0",
       [&](const Request& r) {
         pfact::obs::ScopedCounters c;
         const rb::RunReport rep =
             rb::run_on_substrate(r.task, rb::Substrate::kDouble);
         add(k0_counters, c.delta());
         return Outcome{rep.ok(), rep.value, false};
       }},
      {"run_on_substrate k=8",
       [&](const Request& r) {
         pfact::obs::ScopedCounters c;
         rb::CheckpointStore store;
         rb::CheckpointConfig ckpt;
         ckpt.every = 8;
         ckpt.store = &store;
         const rb::RunReport rep =
             rb::run_on_substrate(r.task, rb::Substrate::kDouble, {}, {}, ckpt);
         add(k8_counters, c.delta());
         return Outcome{rep.ok(), rep.value, false};
       }},
      {"resilient_run",
       [](const Request& r) {
         rb::CheckpointStore store;
         rb::ResilientOptions ro;
         ro.checkpoint_every = 8;
         ro.store = &store;
         const rb::ResilientReport rep = rb::resilient_run(r.task, ro);
         return Outcome{rep.certified, rep.value, false};
       }},
      {"supervised_run",
       [&pool](const Request& r) {
         rb::CheckpointStore store;
         sv::SupervisorOptions so = service_options().supervisor;
         so.store = &store;
         const sv::SupervisedReport rep = sv::supervised_run(pool, r.task, so);
         return Outcome{rep.certified, rep.value, false};
       }},
      {"ReductionService::run",
       [&svc_fresh](const Request& r) { return of(svc_fresh.run(r.task)); }},
      {"Client::submit",
       [&client_fresh](const Request& r) {
         return of(client_fresh.submit(r.task));
       }},
      {"ShardRouter::submit", via_router(router_fresh)},
  };
  // Cached stack, bottom to top (the keys are filled first).
  const std::vector<Rig> hit_stack = {
      {"ResultCache::lookup",
       [&svc_hit](const Request& r) {
         sv::CacheEntry e;
         const bool hit =
             svc_hit.cache().lookup(
                 sv::ResultCache::key_for(r.task, rb::Substrate::kDouble), e) ==
             sv::CacheProbe::kHit;
         return Outcome{hit, e.value, true};
       }},
      {"ReductionService::run",
       [&svc_hit](const Request& r) { return of(svc_hit.run(r.task)); }},
      {"Client::submit",
       [&client_hit](const Request& r) { return of(client_hit.submit(r.task)); }},
      {"ShardRouter::submit", via_router(router_hit)},
  };

  // Each request goes through every rig back to back, starting at a rotating
  // rig, so load drift on the host lands on all layers alike. A rig's value
  // is the median over requests of each request's median over passes.
  auto interleave = [&](const std::vector<Rig>& rigs,
                        const std::vector<Request>& reqs, std::size_t passes) {
    std::vector<std::vector<std::vector<double>>> ms(
        rigs.size(), std::vector<std::vector<double>>(reqs.size()));
    std::size_t turn = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        for (std::size_t j = 0; j < rigs.size() && check.ok(); ++j) {
          const std::size_t k = (j + turn) % rigs.size();
          const auto t = Clock::now();
          const Outcome o = rigs[k].call(reqs[i]);
          ms[k][i].push_back(ms_since(t));
          check.check(o.answered && o.value == reqs[i].expected,
                      std::string(rigs[k].name) + " (" + reqs[i].family + ")");
        }
        ++turn;
        pfact::obs::clear_spans();
      }
    }
    std::vector<double> value;
    for (const auto& per_request : ms) {
      std::vector<double> medians;
      for (const std::vector<double>& v : per_request) medians.push_back(median(v));
      value.push_back(median(medians));
    }
    return value;
  };
  const std::size_t fresh_calls = fresh.size() * fresh_passes;
  const std::vector<double> m = interleave(stack, fresh, fresh_passes);
  if (!check.ok()) return;
  const sv::WarmPool::Stats ps = pool.stats();

  std::vector<sv::FrontendResponse> responses;
  for (const Request& r : hits) {
    responses.push_back(client_hit.submit(r.task).response);
    router_hit.submit(r.task);
  }
  const std::uint64_t conns_before = front_hit.stats().conns_accepted;
  const std::vector<double> h = interleave(hit_stack, hits, hit_passes);
  const double conns_per_req =
      static_cast<double>(front_hit.stats().conns_accepted - conns_before) /
      static_cast<double>(hits.size() * hit_passes);
  if (!check.ok()) return;

  // Connect + kProbe round trip on the Frontend socket.
  std::vector<double> probe_ms;
  for (std::size_t i = 0; i < hits.size() * hit_passes; ++i) {
    const auto t = Clock::now();
    const bool acked =
        sv::probe_shard(fo_hit.unix_path, std::chrono::milliseconds(1000));
    probe_ms.push_back(ms_since(t));
    if (!check.require(acked, "probe frontend")) return;
  }

  // Framing alone: the cached stack's request and response frames over a
  // socketpair, encoded, written, read back, and decoded in one thread.
  std::vector<double> wire_ms;
  int fds[2];
  if (!check.require(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                   "socketpair")) {
    return;
  }
  for (std::size_t p = 0; p < hit_passes && check.ok(); ++p) {
    for (std::size_t k = 0; k < hits.size() && check.ok(); ++k) {
      const auto t = Clock::now();
      sv::TaskRequest req;
      req.task = hits[k].task;
      sv::FrameType type = sv::FrameType::kProbe;
      std::string payload;
      sv::TaskRequest echoed;
      sv::FrontendResponse decoded;
      const bool ok =
          sv::write_frame(fds[0], sv::FrameType::kRequest,
                          sv::encode_request(req)) == sv::WireStatus::kOk &&
          sv::read_frame(fds[1], type, payload) == sv::WireStatus::kOk &&
          sv::decode_request(payload, echoed) &&
          sv::write_frame(fds[1], sv::FrameType::kResponse,
                          sv::encode_response(responses[k])) ==
              sv::WireStatus::kOk &&
          sv::read_frame(fds[0], type, payload) == sv::WireStatus::kOk &&
          sv::decode_response(payload, decoded);
      wire_ms.push_back(ms_since(t));
      check.check(ok && decoded.value == hits[k].expected,
                  "wire round trip (" + std::string(hits[k].family) + ")");
    }
  }
  ::close(fds[0]);
  ::close(fds[1]);
  if (!check.ok()) return;

  const double per_op = 1.0 / static_cast<double>(fresh_calls);
  using C = pfact::obs::Counter;
  out.metric("core.assemble_us", 1e3 * m[0], "us");
  out.metric("factor.elim_ms", m[1] - m[0], "ms");
  out.metric("factor.elim_steps", per_op * k0_counters[C::kElimSteps], "count");
  out.metric("factor.pivot_scan_rows", per_op * k0_counters[C::kPivotScanRows],
             "count");
  out.metric("factor.row_update_elems",
             per_op * k0_counters[C::kRowUpdateElems], "count");
  out.metric("robustness.checkpoint_ms", m[2] - m[1], "ms");
  out.metric("robustness.checkpoint_saves",
             per_op * k8_counters[C::kCheckpointSaves], "count");
  out.metric("robustness.checkpoint_bytes",
             per_op * k8_counters[C::kCheckpointBytes], "bytes");
  out.metric("robustness.resilient_us", 1e3 * (m[3] - m[2]), "us");
  out.metric("serve.worker_pipe_ms", m[4] - m[3], "ms");
  out.metric("serve.worker_spawns_per_job",
             static_cast<double>(ps.spawned) / ps.jobs, "ratio");
  out.metric("serve.queue_us", 1e3 * (m[5] - m[4]), "us");
  out.metric("serve.frontend_us", 1e3 * (m[6] - m[5]), "us");
  out.metric("serve.router_us", 1e3 * (m[7] - m[6]), "us");
  out.metric("serve.fresh_submit_ms", m[7], "ms");
  out.metric("serve.cache_lookup_us", 1e3 * h[0], "us");
  out.metric("serve.service_hit_us", 1e3 * h[1], "us");
  out.metric("serve.hit_queue_us", 1e3 * (h[1] - h[0]), "us");
  out.metric("serve.hit_frontend_us", 1e3 * (h[2] - h[1]), "us");
  out.metric("serve.hit_router_us", 1e3 * (h[3] - h[2]), "us");
  out.metric("serve.hit_submit_us", 1e3 * h[3], "us");
  out.metric("serve.connect_us", 1e3 * median(probe_ms), "us");
  out.metric("serve.wire_us", 1e3 * median(wire_ms), "us");
  out.metric("serve.frontend_conns_per_req", conns_per_req, "ratio");
  std::string line = "fresh stack (" + std::to_string(fresh.size()) +
                     " GEM/GEMS requests x " + std::to_string(fresh_passes) +
                     " passes) medians ms:";
  for (std::size_t k = 0; k < stack.size(); ++k)
    line += std::string(" ") + stack[k].name + "=" + std::to_string(m[k]);
  out.info(line);
  line = "cached stack (" + std::to_string(hits.size()) + " keys x " +
         std::to_string(hit_passes) + " passes) medians ms:";
  for (std::size_t k = 0; k < hit_stack.size(); ++k)
    line += std::string(" ") + hit_stack[k].name + "=" + std::to_string(h[k]);
  out.info(line);
}

}  // namespace pfbench
