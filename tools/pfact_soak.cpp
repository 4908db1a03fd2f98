// Supervised chaos soak for the resilient execution engine.
//
// Replays randomized-but-deterministic fault campaigns against the four
// reductions (GEM / GEMS / GEP / GQR, plus the bordered nonsingular GEM)
// through robustness::resilient_run and asserts the engine's one
// non-negotiable property: ZERO WRONG ANSWERS. Every campaign must end
// either certified-correct (the decoded boolean matches the direct circuit
// evaluation AND the task's ground truth) or as a classified terminal
// failure — a campaign that certifies the wrong boolean fails the whole
// soak immediately and dumps its evidence.
//
// Campaign shapes, selected per-campaign from the seed stream:
//   fault-sweep  — one FaultClass injected persistently on every attempt;
//                  the ladder must detect it on every rung it survives to.
//   flip-ladder  — kRoundingFlip against a ladder that STARTS on SoftFloat
//                  (where the flip is visible): transient retries exhaust,
//                  then escalation to exact rationals certifies the value.
//   preemption   — a step budget smaller than the factorization, with
//                  checkpointing: every attempt is killed mid-run and the
//                  next one resumes from the last snapshot, so the task
//                  finishes by accumulated progress across kills.
//   torn-write   — preemption plus kTornWrite: the first snapshot of an
//                  attempt is corrupted at save time; resume must reject it
//                  (CRC / truncation), drop it, and recover from an intact
//                  earlier snapshot or from scratch.
//   kill-resume  — explicit crash/resume equivalence: kill a checkpointing
//                  run at a boundary, hand the surviving store to a fresh
//                  engine call, and require the SAME decoded boolean and
//                  the SAME pivot trace, event for event, as an
//                  uninterrupted baseline.
//
// With --kill-only the soak switches to REAL-kill campaigns through the
// serve/ process-isolation layer: every attempt runs in a forked,
// rlimit-sandboxed worker that is actually destroyed — SIGKILL, a genuine
// wild-store SIGSEGV, a nonzero _exit, the RLIMIT_CPU sandbox's SIGXCPU, or
// the supervisor's watchdog — and the campaign must still end certified
// with the ground-truth boolean (the successor worker is seeded from the
// checkpoints the victim streamed over the pipe before dying). The kill-only
// soak additionally certifies COVERAGE: every WorkerExit class except
// kProtocolError and kForkFailure must be produced and survived at least
// once (protocol errors need a worker that exits 0 without a result frame,
// which no supported KillPlan produces, and fork exhaustion cannot be
// staged on demand; tests/serve/test_warm_pool.cpp produces both through
// WarmPool's fork seam).
//
// With --serve the soak drives the full warm-worker ReductionService
// instead: concurrent clients push jobs through admission control onto the
// pre-forked pool, with real kill schedules riding on individual jobs,
// overload bursts that MUST shed classified kShedQueueFull refusals,
// deadline-expired jobs that MUST shed as kShedDeadline, and the verified
// result cache serving repeats. Contracts: zero wrong answers (cached or
// fresh), every shed classified (never a silent drop), every killed warm
// worker respawned (the pool ends at full strength), full WorkerExit
// coverage (same two exclusions as kill-only), and at least one genuine
// cache hit.
//
// With --net the soak attacks the socket FRONT END: a Frontend listening on
// a temp Unix socket fronts the warm-worker service, and client submissions
// are sabotaged with every NetFaultPlan shape — torn frames, mid-header
// closes, byte-dribbles, slowloris stalls, garbage preambles — plus
// connection-bound overloads and a final graceful drain. Contracts: zero
// wrong answers (every submission that survives its fault decodes the
// ground-truth boolean), every conversation ending classified as exactly
// one FrontendStatus, FULL FrontendStatus coverage across the campaign set,
// and the warm pool intact at the end.
//
// With --shard the soak attacks the sharded self-healing router: a
// ShardRouter over three forked shard processes (each a private
// ReductionService behind its own Unix socket) takes consistent-hash-routed
// traffic while campaigns SIGKILL and SIGSEGV home shards mid-stream, wedge
// shards with SIGSTOP until the probe deadline evicts them, stage brownout
// entry/exit (fresh keys shed as classified kOverloaded while warm keys
// keep answering), and kill the whole fleet at once to force the
// all-shards-down refusal and a restart storm. Contracts: zero wrong
// answers — every fresh certified answer matches an unsharded baseline
// service bit for bit, value AND pivot trace; every submit classified as
// exactly one RouterStatus (the ledger must sum); full ShardStatus AND
// RouterStatus coverage; the fleet back at full serving strength after
// every campaign; and a cache-locality floor (at least a quarter of
// answers come from the consistent-hash home shard despite the chaos).
//
// Usage: pfact_soak [--campaigns N] [--seed S] [--log FILE]
//                   [--fail-dir DIR] [--kill-only] [--serve] [--net]
//                   [--shard] [--inject-violation N] [--verbose]
//
// Exit code 0 iff every campaign held the contract; any violation exits
// nonzero and prints the campaign seed so the run can be replayed.
// --inject-violation N fabricates a violation at campaign N — the
// regression seam proving the violation exit path stays wired. The log file
// (one line per campaign) and any failing checkpoint blobs (--fail-dir)
// are the CI artifacts.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_run.h"
#include "robustness/retry.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

using namespace pfact;
using namespace pfact::robustness;

namespace {

struct Options {
  std::size_t campaigns = 200;
  std::uint64_t seed = 1;
  std::string log_path = "soak_log.txt";
  std::string fail_dir;
  bool kill_only = false;
  bool serve = false;
  bool net = false;
  bool shard = false;
  bool verbose = false;
  // Campaign index at which to fabricate a contract violation (SIZE_MAX =
  // never): the regression seam that keeps every violation path wired to a
  // nonzero exit and a printed seed.
  std::size_t inject_violation = SIZE_MAX;
};

// Every violation path funnels through here on its way out: the seed is the
// replay handle, so it must reach stdout even when only the tail of the
// output survives (CI truncation, a pipe buffer, a panicked operator).
int fail_exit(const Options& opt) {
  std::printf("pfact_soak: FAILED seed=%llu (see %s)\n",
              static_cast<unsigned long long>(opt.seed),
              opt.log_path.c_str());
  return 1;
}

struct SoakStats {
  std::size_t certified = 0;
  std::size_t terminal = 0;
  std::size_t escalations = 0;
  std::size_t attempts = 0;
  std::size_t resumes = 0;
  std::size_t checkpoint_rejections = 0;
  std::size_t wrong_answers = 0;  // must stay 0
  std::size_t broken_contracts = 0;
};

// True (and records the fabricated violation) when --inject-violation says
// this campaign must fail. Checked at the top of every campaign loop so the
// seam exercises each mode's abort path identically.
bool injected_violation(const Options& opt, std::size_t campaign,
                        std::ofstream& log, SoakStats& stats) {
  if (campaign != opt.inject_violation) return false;
  ++stats.broken_contracts;
  log << "campaign " << campaign
      << " INJECTED VIOLATION (--inject-violation)\n";
  return true;
}

// Deterministic per-campaign stream: mix64 of (seed, campaign, salt).
struct Stream {
  std::uint64_t seed;
  std::uint64_t campaign;
  std::uint64_t salt = 0;
  std::uint64_t next() { return mix64(seed + campaign * 0x1000003ull, ++salt); }
  std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

std::vector<ReductionTask> build_task_pool() {
  std::vector<ReductionTask> pool;
  auto add_cvp = [&pool](Algorithm alg, circuit::Circuit c,
                         std::vector<bool> in) {
    ReductionTask t;
    t.algorithm = alg;
    t.instance = circuit::CvpInstance{std::move(c), std::move(in)};
    pool.push_back(std::move(t));
  };
  add_cvp(Algorithm::kGem, circuit::xor_circuit(), {true, false});
  add_cvp(Algorithm::kGem, circuit::majority3_circuit(), {true, false, true});
  add_cvp(Algorithm::kGems, circuit::xor_circuit(), {true, true});
  add_cvp(Algorithm::kGems, circuit::parity_circuit(3), {true, true, false});
  add_cvp(Algorithm::kGemNonsingular, circuit::xor_circuit(), {false, true});
  for (int u = 1; u <= 2; ++u) {
    for (int w = 1; w <= 2; ++w) {
      ReductionTask gep;
      gep.algorithm = Algorithm::kGep;
      gep.u = u;
      gep.w = w;
      gep.depth = 2;
      pool.push_back(gep);
    }
  }
  for (int a = -1; a <= 1; a += 2) {
    for (int b = -1; b <= 1; b += 2) {
      ReductionTask gqr;
      gqr.algorithm = Algorithm::kGqr;
      gqr.u = a;
      gqr.w = b;
      gqr.depth = 1;
      pool.push_back(gqr);
    }
  }
  return pool;
}

bool traces_equal(const factor::PivotTrace& a, const factor::PivotTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column || a[i].pivot_pos != b[i].pivot_pos ||
        a[i].pivot_row != b[i].pivot_row || a[i].action != b[i].action) {
      return false;
    }
  }
  return true;
}

void tally(const ResilientReport& rep, SoakStats& stats) {
  stats.attempts += rep.attempts.size();
  stats.escalations += rep.escalations;
  for (const AttemptRecord& a : rep.attempts) {
    if (a.resumed) ++stats.resumes;
    if (a.diagnostic == Diagnostic::kCheckpointCorrupt) {
      ++stats.checkpoint_rejections;
    }
  }
}

// The one property the engine must never lose: a certified answer is the
// ground truth. Returns false (and dumps evidence) on violation.
bool check_verdict(const ReductionTask& task, const ResilientReport& rep,
                   const Options& opt, const CheckpointStore* store,
                   std::size_t campaign, std::ofstream& log,
                   SoakStats& stats) {
  if (rep.certified) {
    ++stats.certified;
    if (rep.value != task.expected()) {
      ++stats.wrong_answers;
      log << "campaign " << campaign << " WRONG ANSWER: " << task.describe()
          << " certified " << (rep.value ? "true" : "false") << " but truth is "
          << (task.expected() ? "true" : "false") << "\n"
          << rep.to_string() << "\n";
      if (!opt.fail_dir.empty() && store != nullptr) {
        std::size_t i = 0;
        for (const auto& [step, blob] : store->blobs()) {
          write_checkpoint_file(opt.fail_dir + "/campaign" +
                                    std::to_string(campaign) + "_step" +
                                    std::to_string(step) + ".ckpt",
                                blob);
          ++i;
        }
        (void)i;
      }
      return false;
    }
  } else {
    ++stats.terminal;
    // A terminal failure must be a *classified* one — the supervisor never
    // gives up with kOk or an unexplained success-kind.
    if (rep.outcome == FailureKind::kSuccess ||
        rep.final_report.diagnostic == Diagnostic::kOk) {
      ++stats.broken_contracts;
      log << "campaign " << campaign
          << " BROKEN CONTRACT: terminal report carries kOk\n"
          << rep.to_string() << "\n";
      return false;
    }
  }
  return true;
}

// --- real-kill campaigns through the serve/ layer ---------------------------

// One deliberate death per campaign, cycled so every class is exercised:
// the shape names the WorkerExit it must produce and the Diagnostic the
// supervisor must classify it as.
struct KillShape {
  const char* name;
  serve::KillPlan::Mode mode;
  bool watchdog;    // arm a 200ms supervisor deadline
  bool cpu_rlimit;  // 1-second RLIMIT_CPU sandbox
  serve::WorkerExit expect_exit;
  Diagnostic expect_diag;
};

constexpr KillShape kKillShapes[] = {
    {"worker-sigkill", serve::KillPlan::Mode::kSigkill, false, false,
     serve::WorkerExit::kSignalled, Diagnostic::kWorkerFailure},
    {"worker-sigsegv", serve::KillPlan::Mode::kSigsegv, false, false,
     serve::WorkerExit::kSignalled, Diagnostic::kWorkerFailure},
    {"worker-exit", serve::KillPlan::Mode::kExit, false, false,
     serve::WorkerExit::kNonzeroExit, Diagnostic::kWorkerFailure},
    {"worker-watchdog", serve::KillPlan::Mode::kSpin, true, false,
     serve::WorkerExit::kWatchdog, Diagnostic::kDeadlineExceeded},
    {"worker-rlimit", serve::KillPlan::Mode::kSpin, false, true,
     serve::WorkerExit::kCpuLimit, Diagnostic::kResourceExhausted},
};

int run_kill_campaigns(const Options& opt, std::ofstream& log) {
  const std::vector<ReductionTask> pool_tasks = build_task_pool();
  // A fresh worker process for every attempt.
  serve::WarmPool pool({.workers = 1, .recycle_after = 1});
  SoakStats stats;
  std::set<serve::WorkerExit> observed;
  std::size_t resume_handoffs = 0;
  bool ok = true;

  for (std::size_t campaign = 0; campaign < opt.campaigns && ok; ++campaign) {
    if (injected_violation(opt, campaign, log, stats)) {
      ok = false;
      break;
    }
    Stream rng{opt.seed, campaign};
    const ReductionTask& task = pool_tasks[rng.pick(pool_tasks.size())];
    // Cycle shapes deterministically so a short soak still covers them all.
    const KillShape& shape = kKillShapes[campaign % std::size(kKillShapes)];

    CheckpointStore store;
    serve::SupervisorOptions so;
    so.retry.max_attempts = 3;
    so.retry.base_delay = std::chrono::milliseconds{1};
    so.retry.jitter_seed = rng.next();
    so.checkpoint_every = 2;
    so.store = &store;
    if (shape.watchdog) so.watchdog = std::chrono::milliseconds{200};
    if (shape.cpu_rlimit) so.rlimits.cpu_seconds = 1;
    // 0 = die before any save, 1 = die right after the first save. Capped
    // at 1 because the smallest pool tasks may stream only one snapshot —
    // a trigger that never fires would let attempt 1 complete cleanly and
    // trip the misclassification check below.
    const std::uint64_t after_saves = rng.pick(2);
    so.kill_for_attempt = [&shape, after_saves](std::size_t attempt) {
      serve::KillPlan kill;
      if (attempt == 1) {
        kill.mode = shape.mode;
        kill.after_saves = after_saves;
      }
      return kill;
    };

    const serve::SupervisedReport rep = supervised_run(pool, task, so);
    stats.attempts += rep.attempts.size();
    stats.escalations += rep.escalations;
    resume_handoffs += rep.resume_handoffs;

    // Zero wrong answers, across a real process death.
    if (!rep.certified || rep.value != task.expected()) {
      if (rep.certified) ++stats.wrong_answers;
      ++stats.broken_contracts;
      log << "campaign " << campaign << " " << shape.name << " "
          << task.describe() << " FAILED: "
          << (rep.certified ? "WRONG ANSWER" : "not certified") << "\n"
          << rep.to_string() << "\n";
      if (!opt.fail_dir.empty()) {
        for (const auto& [step, blob] : store.blobs()) {
          write_checkpoint_file(opt.fail_dir + "/campaign" +
                                    std::to_string(campaign) + "_step" +
                                    std::to_string(step) + ".ckpt",
                                blob);
        }
      }
      ok = false;
      break;
    }
    ++stats.certified;
    // The victim's death was classified exactly as the taxonomy promises.
    if (rep.attempts.empty() ||
        rep.attempts.front().diagnostic != shape.expect_diag) {
      ++stats.broken_contracts;
      log << "campaign " << campaign << " " << shape.name
          << " MISCLASSIFIED: expected "
          << diagnostic_name(shape.expect_diag) << ", got "
          << (rep.attempts.empty()
                  ? "no attempts"
                  : diagnostic_name(rep.attempts.front().diagnostic))
          << "\n" << rep.to_string() << "\n";
      ok = false;
      break;
    }
    observed.insert(shape.expect_exit);
    observed.insert(rep.last_worker_exit);  // kCompleted on certification
    log << "campaign " << campaign << " " << shape.name << " "
        << task.describe() << " certified attempts=" << rep.attempts.size()
        << " resume-handoffs=" << rep.resume_handoffs << "\n";
    if (opt.verbose) {
      std::printf("campaign %zu %s %s: certified (%zu attempts)\n", campaign,
                  shape.name, task.describe().c_str(), rep.attempts.size());
    }
  }

  // Coverage: every death class the pool can report was really produced
  // and survived — except kProtocolError (no KillPlan yields exit-0
  // without a result frame) and kForkFailure (real fork exhaustion cannot
  // be staged on demand); tests/serve/test_warm_pool.cpp produces both
  // through the pool's fork seam.
  if (ok && opt.campaigns >= std::size(kKillShapes)) {
    for (serve::WorkerExit e : serve::all_worker_exits()) {
      if (e == serve::WorkerExit::kProtocolError ||
          e == serve::WorkerExit::kForkFailure) {
        continue;
      }
      if (observed.count(e) == 0) {
        ++stats.broken_contracts;
        log << "COVERAGE GAP: WorkerExit " << serve::worker_exit_name(e)
            << " never observed\n";
        ok = false;
      }
    }
  }

  const serve::WarmPool::Stats ps = pool.stats();
  log << "summary certified=" << stats.certified
      << " attempts=" << stats.attempts
      << " workers-spawned=" << ps.spawned << " workers-crashed="
      << ps.crashed << " watchdog-kills=" << ps.watchdog_kills
      << " resume-handoffs=" << resume_handoffs
      << " wrong-answers=" << stats.wrong_answers
      << " broken-contracts=" << stats.broken_contracts << "\n";
  std::printf(
      "pfact_soak --kill-only: %zu certified, %zu attempts, "
      "%llu workers spawned, %llu crashed, %llu watchdog kills, "
      "%zu resume handoffs, %zu wrong answers, %zu broken contracts\n",
      stats.certified, stats.attempts,
      static_cast<unsigned long long>(ps.spawned),
      static_cast<unsigned long long>(ps.crashed),
      static_cast<unsigned long long>(ps.watchdog_kills), resume_handoffs,
      stats.wrong_answers, stats.broken_contracts);
  if (!ok || stats.wrong_answers != 0 || stats.broken_contracts != 0) {
    return fail_exit(opt);
  }
  std::printf("pfact_soak: all real-kill campaigns held the contract\n");
  return 0;
}

// --- concurrent serve campaigns through the warm-worker service -------------

// A not-currently-cached task, so the result cache cannot short-circuit a
// campaign that must reach a real worker: kill schedules and dispatcher
// wedges ride on these. Chain tasks (GEP/GQR) are the supply — (algorithm,
// u, w, depth) is the cache key — and two bounds keep them honest:
//
//   * depth is capped at 20, because checkpoint cost grows fast with depth
//     (a depth-36 chain streams ~265 snapshots per attempt, which cannot
//     certify inside a 200ms watchdog and stalls the soak);
//   * depths start ABOVE the repeat pool's (GEP 3.., GQR 2.. vs. the
//     pool's GEP depth 2 / GQR depth 1), so a unique task never aliases a
//     repeat task. That matters because overload bursts re-run the repeat
//     pool constantly, LRU-freshening its cache entries forever — a unique
//     task colliding with one would hit the cache and skip its kill;
//   * ids cycle with period 126 (7 combos x 18 depths). That is NOT
//     globally unique, but it does not have to be: a unique task's entry
//     is probed only by its own campaign, and the service cache holds 64
//     entries while the campaigns push ~9 fresh fills per 7-campaign
//     block, so the never-refreshed entry has been LRU-evicted long before
//     the id comes around again (~98 campaigns, ~2x the cache lifetime).
//
// GEP u=2,w=2 is deliberately absent from the combo set: that chain is
// decode-ambiguous (multiple live rows at the value column) from depth 13
// on — a genuinely invalid instance, not a robustness scenario.
ReductionTask unique_chain_task(std::uint64_t id) {
  ReductionTask t;
  const std::uint64_t slot = id % 126;
  const std::uint64_t combo = slot % 7;  // 3 GEP + 4 GQR shapes
  const std::size_t rung = static_cast<std::size_t>(slot / 7);  // 0..17
  if (combo < 3) {
    t.algorithm = Algorithm::kGep;
    t.u = 1 + static_cast<int>(combo & 1);          // GEP inputs: {1,2}
    t.w = 1 + static_cast<int>((combo >> 1) & 1);
    t.depth = 3 + rung;  // repeat pool uses GEP depth 2
  } else {
    t.algorithm = Algorithm::kGqr;
    t.u = (combo & 1) ? 1 : -1;                     // GQR inputs: {-1,+1}
    t.w = ((combo >> 1) & 1) ? 1 : -1;
    t.depth = 2 + rung;  // repeat pool uses GQR depth 1
  }
  return t;
}

int run_serve_campaigns(const Options& opt, std::ofstream& log) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();

  serve::ServiceOptions so;
  so.dispatchers = 2;
  so.queue_depth = 4;  // small on purpose: overload bursts must shed
  so.cache_capacity = 64;
  so.pool.workers = 2;
  so.pool.recycle_after = 8;  // quota retirements happen during the soak
  so.supervisor.retry.max_attempts = 3;
  so.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  so.supervisor.checkpoint_every = 2;
  serve::ReductionService service(so);

  SoakStats stats;
  std::set<serve::WorkerExit> observed;
  std::uint64_t unique_id = 0;
  bool ok = true;

  auto fail = [&](std::size_t campaign, const char* what,
                  const std::string& body) {
    ++stats.broken_contracts;
    log << "campaign " << campaign << " " << what << "\n" << body << "\n";
    if (!opt.fail_dir.empty()) {
      std::ofstream dump(opt.fail_dir + "/serve_campaign" +
                             std::to_string(campaign) + ".txt",
                         std::ios::trunc);
      dump << what << "\n" << body << "\n";
    }
    ok = false;
  };

  // Checks one admitted-and-dispatched response against the zero-wrong-
  // answer contract; returns false after recording the failure.
  auto check_served = [&](std::size_t campaign, const ReductionTask& task,
                          const serve::ServiceResponse& resp) {
    stats.attempts += resp.report.attempts.size();
    if (!resp.report.certified || resp.report.value != task.expected()) {
      if (resp.report.certified) ++stats.wrong_answers;
      fail(campaign,
           resp.report.certified ? "WRONG ANSWER" : "NOT CERTIFIED",
           resp.report.to_string());
      return false;
    }
    ++stats.certified;
    if (!resp.from_cache) observed.insert(resp.report.last_worker_exit);
    return true;
  };

  for (std::size_t campaign = 0; campaign < opt.campaigns && ok; ++campaign) {
    if (injected_violation(opt, campaign, log, stats)) {
      ok = false;
      break;
    }
    Stream rng{opt.seed, campaign};
    const std::size_t shape = campaign % 7;

    if (shape < std::size(kKillShapes)) {
      // Real-kill job through the full service path: admission -> bounded
      // queue -> warm worker -> supervised retry/resume. The task is unique
      // per campaign, so the kill always reaches a live worker.
      const KillShape& ks = kKillShapes[shape];
      const ReductionTask task = unique_chain_task(unique_id++);
      serve::JobOptions job;
      const std::uint64_t after_saves = rng.pick(2);
      job.kill_for_attempt = [&ks, after_saves](std::size_t attempt) {
        serve::KillPlan kill;
        if (attempt == 1) {
          kill.mode = ks.mode;
          kill.after_saves = after_saves;
        }
        return kill;
      };
      if (ks.watchdog) job.watchdog = std::chrono::milliseconds{200};
      if (ks.cpu_rlimit) job.rlimits.cpu_seconds = 1;
      const serve::ServiceResponse resp = service.run(task, job);
      if (resp.admission != serve::Admission::kAccepted) {
        fail(campaign, "LONE JOB SHED: an idle service must admit",
             resp.report.to_string());
        break;
      }
      if (!check_served(campaign, task, resp)) break;
      // The worker's death was classified exactly as the taxonomy promises.
      if (resp.report.attempts.empty() ||
          resp.report.attempts.front().diagnostic != ks.expect_diag) {
        fail(campaign, "KILL MISCLASSIFIED", resp.report.to_string());
        break;
      }
      observed.insert(ks.expect_exit);
      log << "campaign " << campaign << " serve-" << ks.name
          << " certified attempts=" << resp.report.attempts.size() << "\n";
      if (opt.verbose) {
        std::printf("campaign %zu serve-%s: certified (%zu attempts)\n",
                    campaign, ks.name, resp.report.attempts.size());
      }
    } else if (shape == std::size(kKillShapes)) {
      // Overload burst: pin both dispatchers on fresh (uncached) jobs, then
      // pour in more submissions than the queue bound can hold from
      // concurrent client threads while nothing drains. The overflow MUST
      // be refused as classified kShedQueueFull — never queued unboundedly,
      // never silently dropped — and every admitted job must still certify.
      const ReductionTask pin_a = unique_chain_task(unique_id++);
      const ReductionTask pin_b = unique_chain_task(unique_id++);
      auto pa = service.submit(pin_a);
      auto pb = service.submit(pin_b);

      constexpr std::size_t kBurst = 10;
      std::vector<ReductionTask> burst_tasks;
      for (std::size_t j = 0; j < kBurst; ++j) {
        // Cycled by campaign so later bursts repeat earlier bursts' tasks —
        // that repetition is what the cache-hit contract feeds on.
        burst_tasks.push_back(
            repeat_tasks[(campaign + j) % repeat_tasks.size()]);
      }
      std::vector<std::shared_ptr<serve::ReductionService::Pending>> burst(
          kBurst);
      {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < 5; ++c) {
          clients.emplace_back([&, c] {
            for (std::size_t j = c * 2; j < c * 2 + 2; ++j) {
              burst[j] = service.submit(burst_tasks[j]);
            }
          });
        }
        for (std::thread& t : clients) t.join();
      }

      std::size_t shed_here = 0;
      for (std::size_t j = 0; j < kBurst && ok; ++j) {
        const serve::ServiceResponse& resp = burst[j]->wait();
        if (resp.admission == serve::Admission::kAccepted) {
          if (!check_served(campaign, burst_tasks[j], resp)) break;
        } else if (resp.admission == serve::Admission::kShedQueueFull) {
          ++shed_here;
          // A shed is only acceptable CLASSIFIED: the transient
          // kOverloaded diagnostic a client backoff loop can act on.
          if (resp.report.final_report.diagnostic !=
                  Diagnostic::kOverloaded ||
              classify_diagnostic(resp.report.final_report.diagnostic) !=
                  FailureKind::kTransient ||
              resp.report.certified) {
            fail(campaign, "UNCLASSIFIED SHED", resp.report.to_string());
            break;
          }
        } else {
          fail(campaign, "UNEXPECTED ADMISSION CLASS",
               std::string(serve::admission_name(resp.admission)));
          break;
        }
      }
      if (ok && !check_served(campaign, pin_a, pa->wait())) break;
      if (ok && !check_served(campaign, pin_b, pb->wait())) break;
      if (ok && shed_here == 0) {
        fail(campaign, "OVERLOAD NEVER SHED",
             "burst exceeded queue_depth with both dispatchers pinned, yet "
             "no submission was refused");
        break;
      }
      if (ok) {
        log << "campaign " << campaign << " serve-overload shed=" << shed_here
            << "/" << kBurst << "\n";
        if (opt.verbose) {
          std::printf("campaign %zu serve-overload: %zu/%zu shed\n", campaign,
                      shed_here, kBurst);
        }
      }
    } else {
      // Deadline expiry: wedge both dispatchers on watchdog-bounded spins,
      // then queue a job whose deadline is already hopeless. FIFO order
      // guarantees the wedges are picked up first, so by the time a
      // dispatcher frees up (>= 200ms later) the 1ms deadline has long
      // passed: the job must be shed as kShedDeadline without ever
      // touching a worker.
      serve::JobOptions wedge;
      wedge.kill_for_attempt = [](std::size_t attempt) {
        serve::KillPlan kill;
        if (attempt == 1) kill.mode = serve::KillPlan::Mode::kSpin;
        return kill;
      };
      wedge.watchdog = std::chrono::milliseconds{200};
      const ReductionTask wedge_a = unique_chain_task(unique_id++);
      const ReductionTask wedge_b = unique_chain_task(unique_id++);
      auto wa = service.submit(wedge_a, wedge);
      auto wb = service.submit(wedge_b, wedge);

      serve::JobOptions doomed;
      doomed.deadline = std::chrono::milliseconds{1};
      const ReductionTask late_task =
          repeat_tasks[rng.pick(repeat_tasks.size())];
      auto late = service.submit(late_task, doomed);

      const serve::ServiceResponse& lr = late->wait();
      if (lr.admission != serve::Admission::kShedDeadline ||
          lr.report.final_report.diagnostic !=
              Diagnostic::kDeadlineExceeded ||
          lr.report.certified) {
        fail(campaign, "DEADLINE NOT SHED",
             std::string("admission=") +
                 serve::admission_name(lr.admission) + "\n" +
                 lr.report.to_string());
        break;
      }
      // The wedges themselves recover: watchdog kills attempt 1, attempt 2
      // certifies — which also feeds kWatchdog into the coverage set.
      if (!check_served(campaign, wedge_a, wa->wait())) break;
      if (!check_served(campaign, wedge_b, wb->wait())) break;
      observed.insert(serve::WorkerExit::kWatchdog);
      log << "campaign " << campaign << " serve-deadline shed ok\n";
      if (opt.verbose) {
        std::printf("campaign %zu serve-deadline: shed as %s\n", campaign,
                    serve::admission_name(lr.admission));
      }
    }
  }

  // Coverage: every real worker-death class was produced and survived
  // through the service path — same two exclusions as the kill-only soak
  // (tests/serve/test_warm_pool.cpp produces both through the fork seam).
  if (ok && opt.campaigns >= 7) {
    for (serve::WorkerExit e : serve::all_worker_exits()) {
      if (e == serve::WorkerExit::kProtocolError ||
          e == serve::WorkerExit::kForkFailure) {
        continue;
      }
      if (observed.count(e) == 0) {
        ++stats.broken_contracts;
        log << "COVERAGE GAP: WorkerExit " << serve::worker_exit_name(e)
            << " never observed through the service\n";
        ok = false;
      }
    }
  }
  // Auto-respawn: every killed, recycled, or retired warm worker was
  // replaced — the pool ends the soak at full strength.
  if (ok && service.pool().live_workers() != so.pool.workers) {
    ++stats.broken_contracts;
    log << "RESPAWN GAP: " << service.pool().live_workers() << " of "
        << so.pool.workers << " warm workers alive at end of soak\n";
    ok = false;
  }
  const serve::ReductionService::Stats sstats = service.stats();
  if (ok && opt.campaigns >= 14 && sstats.served_from_cache == 0) {
    ++stats.broken_contracts;
    log << "CACHE NEVER HIT: repeated tasks were re-factored every time\n";
    ok = false;
  }

  const serve::WarmPool::Stats ps = service.pool().stats();
  log << "summary certified=" << stats.certified
      << " attempts=" << stats.attempts << " submitted=" << sstats.submitted
      << " accepted=" << sstats.accepted
      << " shed-queue-full=" << sstats.shed_queue_full
      << " shed-deadline=" << sstats.shed_deadline
      << " cache-hits=" << sstats.served_from_cache
      << " workers-spawned=" << ps.spawned << " workers-crashed="
      << ps.crashed << " recycles=" << ps.recycles
      << " watchdog-kills=" << ps.watchdog_kills
      << " wrong-answers=" << stats.wrong_answers
      << " broken-contracts=" << stats.broken_contracts << "\n";
  std::printf(
      "pfact_soak --serve: %zu certified, %zu attempts, "
      "%llu submitted, %llu shed (queue-full %llu, deadline %llu), "
      "%llu cache hits, %llu workers spawned, %llu crashed, "
      "%llu recycles, %zu wrong answers, %zu broken contracts\n",
      stats.certified, stats.attempts,
      static_cast<unsigned long long>(sstats.submitted),
      static_cast<unsigned long long>(sstats.shed_queue_full +
                                      sstats.shed_deadline +
                                      sstats.shed_shutdown),
      static_cast<unsigned long long>(sstats.shed_queue_full),
      static_cast<unsigned long long>(sstats.shed_deadline),
      static_cast<unsigned long long>(sstats.served_from_cache),
      static_cast<unsigned long long>(ps.spawned),
      static_cast<unsigned long long>(ps.crashed),
      static_cast<unsigned long long>(ps.recycles), stats.wrong_answers,
      stats.broken_contracts);
  if (!ok || stats.wrong_answers != 0 || stats.broken_contracts != 0) {
    return fail_exit(opt);
  }
  std::printf("pfact_soak: all serve campaigns held the contract\n");
  return 0;
}

// --- net mode: chaos against the socket front end --------------------------

// Raw-socket plumbing for the shapes the Client cannot stage itself: pinning
// idle connections against the bound, and completing a frame mid-drain.
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

std::string raw_request_frame(const ReductionTask& task) {
  serve::TaskRequest req;
  req.task = task;
  const std::string payload = serve::encode_request(req);
  robustness::detail::ByteWriter w;
  w.put_u32(serve::kFrameMagic);
  w.put_u8(static_cast<std::uint8_t>(serve::FrameType::kRequest));
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

int run_net_campaigns(const Options& opt, std::ofstream& log) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();

  serve::ServiceOptions so;
  so.dispatchers = 2;
  so.queue_depth = 8;
  so.cache_capacity = 64;
  so.pool.workers = 2;
  so.supervisor.retry.max_attempts = 3;
  so.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  so.supervisor.checkpoint_every = 2;
  serve::ReductionService service(so);

  serve::FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_soak_net_" + std::to_string(::getpid()) + ".sock";
  fo.max_connections = 4;  // small on purpose: overload shapes must shed
  // Short enough that a stalled-reader campaign settles fast, long enough
  // that a dribbled frame (~1ms per 64 bytes) still completes in time.
  fo.read_deadline = std::chrono::milliseconds{400};
  fo.write_deadline = std::chrono::milliseconds{2000};
  serve::Frontend frontend(service, fo);

  SoakStats stats;
  bool ok = true;
  std::uint64_t unique_id = 0;

  if (!frontend.running()) {
    ++stats.broken_contracts;
    log << "FRONTEND NEVER BOUND: " << fo.unix_path << "\n";
    return fail_exit(opt);
  }

  auto fail = [&](std::size_t campaign, const char* what,
                  const std::string& body) {
    ++stats.broken_contracts;
    log << "campaign " << campaign << " " << what << "\n" << body << "\n";
    if (!opt.fail_dir.empty()) {
      std::ofstream dump(opt.fail_dir + "/net_campaign" +
                             std::to_string(campaign) + ".txt",
                         std::ios::trunc);
      dump << what << "\n" << body << "\n";
    }
    ok = false;
  };

  auto describe = [](const serve::ClientResult& res) {
    return std::string("status=") +
           serve::frontend_status_name(res.status) + " diagnostic=" +
           robustness::diagnostic_name(res.diagnostic) + " attempts=" +
           std::to_string(res.attempts);
  };

  // The five sabotage shapes, cycled with overload (5) and clean/cached (6).
  static constexpr serve::NetFault kNetShapes[5] = {
      serve::NetFault::kTornFrame,     serve::NetFault::kMidFrameClose,
      serve::NetFault::kDribble,       serve::NetFault::kStalledReader,
      serve::NetFault::kGarbagePreamble};

  auto client_options = [&](Stream& rng) {
    serve::ClientOptions co;
    co.unix_path = frontend.unix_path();
    co.retry.max_attempts = 4;
    co.retry.base_delay = std::chrono::milliseconds{1};
    co.retry.jitter_seed = rng.next();
    return co;
  };

  for (std::size_t campaign = 0; campaign < opt.campaigns && ok; ++campaign) {
    if (injected_violation(opt, campaign, log, stats)) {
      ok = false;
      break;
    }
    Stream rng{opt.seed, campaign};
    const std::size_t shape = campaign % 7;

    if (shape < std::size(kNetShapes)) {
      // One sabotaged attempt, then the retry loop must carry the SAME
      // submission through to the ground-truth boolean. Unique tasks on
      // even campaigns keep fresh factorizations in the mix; repeat tasks
      // on odd ones keep the cache warm.
      serve::ClientOptions co = client_options(rng);
      co.fault.fault = kNetShapes[shape];
      co.fault.seed = rng.next();
      co.fault.on_attempt = 1;
      // Long enough to trip the server's read deadline, with margin.
      co.fault.stall = fo.read_deadline + std::chrono::milliseconds{500};
      const ReductionTask task =
          (campaign % 2 == 0) ? unique_chain_task(unique_id++)
                              : repeat_tasks[rng.pick(repeat_tasks.size())];
      serve::Client client(co);
      const serve::ClientResult res = client.submit(task);
      stats.attempts += res.attempts;
      if (!res.ok || !res.response.certified ||
          res.response.value != task.expected()) {
        if (res.ok && res.response.certified) ++stats.wrong_answers;
        fail(campaign,
             res.ok ? "WRONG ANSWER through the socket" : "SUBMISSION LOST",
             describe(res));
        break;
      }
      ++stats.certified;
      log << "campaign " << campaign << " net-"
          << serve::net_fault_name(co.fault.fault)
          << " certified attempts=" << res.attempts << "\n";
      if (opt.verbose) {
        std::printf("campaign %zu net-%s: certified (%zu attempts)\n",
                    campaign, serve::net_fault_name(co.fault.fault),
                    res.attempts);
      }
    } else if (shape == std::size(kNetShapes)) {
      // Connection-bound overload: pin every slot with idle raw
      // connections, then a submission MUST be refused as classified
      // kOverloaded — and succeed once the pins release.
      std::vector<int> pins;
      for (std::size_t p = 0; p < fo.max_connections; ++p) {
        const int fd = raw_connect(fo.unix_path);
        if (fd >= 0) pins.push_back(fd);
      }
      if (pins.size() != fo.max_connections) {
        for (int fd : pins) ::close(fd);
        fail(campaign, "PIN SETUP FAILED",
             std::to_string(pins.size()) + " of " +
                 std::to_string(fo.max_connections) + " pins connected");
        break;
      }
      serve::ClientOptions co = client_options(rng);
      co.retry.max_attempts = 2;  // both land on a full house
      serve::Client refused_client(co);
      const ReductionTask task = repeat_tasks[rng.pick(repeat_tasks.size())];
      const serve::ClientResult refused = refused_client.submit(task);
      const std::uint64_t closes_before = frontend.stats().clean_closes;
      for (int fd : pins) ::close(fd);
      if (refused.ok ||
          refused.status != serve::FrontendStatus::kOverloaded ||
          refused.diagnostic != Diagnostic::kOverloaded ||
          classify_diagnostic(refused.diagnostic) !=
              FailureKind::kTransient) {
        fail(campaign, "OVERLOAD NOT CLASSIFIED", describe(refused));
        break;
      }
      // The shed is transient and the pins are gone: the same task must
      // now go straight through.
      if (!wait_until([&] {
            return frontend.stats().clean_closes > closes_before;
          })) {
        fail(campaign, "PINS NEVER RELEASED",
             "clean_closes never advanced after closing the pinned "
             "connections");
        break;
      }
      serve::Client retry_client(client_options(rng));
      const serve::ClientResult res = retry_client.submit(task);
      stats.attempts += refused.attempts + res.attempts;
      if (!res.ok || !res.response.certified ||
          res.response.value != task.expected()) {
        if (res.ok && res.response.certified) ++stats.wrong_answers;
        fail(campaign, "POST-OVERLOAD SUBMISSION LOST", describe(res));
        break;
      }
      ++stats.certified;
      log << "campaign " << campaign << " net-overload shed then served\n";
      if (opt.verbose) {
        std::printf("campaign %zu net-overload: shed as %s, then served\n",
                    campaign, serve::frontend_status_name(refused.status));
      }
    } else {
      // Clean round-trip, twice: the first certifies fresh (or refreshes
      // the cache), the immediate repeat MUST be served from the verified
      // result cache — through the socket.
      const ReductionTask task = repeat_tasks[rng.pick(repeat_tasks.size())];
      serve::Client client(client_options(rng));
      const serve::ClientResult first = client.submit(task);
      const serve::ClientResult second = client.submit(task);
      stats.attempts += first.attempts + second.attempts;
      for (const serve::ClientResult* res : {&first, &second}) {
        if (!res->ok || !res->response.certified ||
            res->response.value != task.expected()) {
          if (res->ok && res->response.certified) ++stats.wrong_answers;
          fail(campaign, "CLEAN ROUND-TRIP LOST", describe(*res));
          break;
        }
        ++stats.certified;
      }
      if (!ok) break;
      if (!second.response.from_cache) {
        fail(campaign, "CACHE MISSED THROUGH THE SOCKET",
             "immediate repeat of an identical task re-factored");
        break;
      }
      log << "campaign " << campaign << " net-clean cached repeat ok\n";
      if (opt.verbose) {
        std::printf("campaign %zu net-clean: cached repeat ok\n", campaign);
      }
    }
  }

  // Graceful drain: complete a request AFTER begin_drain and require the
  // classified kDraining refusal — the last FrontendStatus the campaign
  // shapes cannot produce — then require the loop to actually exit.
  if (ok) {
    const int fd = raw_connect(fo.unix_path);
    if (fd < 0) {
      fail(opt.campaigns, "DRAIN CONN FAILED", "connect refused before drain");
    } else {
      const std::string frame = raw_request_frame(repeat_tasks[0]);
      const std::size_t half = frame.size() / 2;
      bool sent = write_all(fd, frame.data(), half);
      frontend.begin_drain();
      sent = sent && write_all(fd, frame.data() + half, frame.size() - half);
      serve::FrameType type = serve::FrameType::kResponse;
      std::string payload;
      serve::FrontendResponse resp;
      const serve::WireStatus ws =
          sent ? serve::read_frame(fd, type, payload,
                                   std::chrono::steady_clock::now() +
                                       std::chrono::seconds(5))
               : serve::WireStatus::kConnReset;
      if (ws != serve::WireStatus::kOk ||
          type != serve::FrameType::kResponse ||
          !serve::decode_response(payload, resp) ||
          resp.status != serve::FrontendStatus::kDraining) {
        fail(opt.campaigns, "DRAIN REFUSAL NOT CLASSIFIED",
             std::string("wire=") + serve::wire_status_name(ws) +
                 " status=" + serve::frontend_status_name(resp.status));
      }
      ::close(fd);
      if (ok && !wait_until([&] { return frontend.drained(); })) {
        fail(opt.campaigns, "DRAIN NEVER FINISHED",
             "event loop still live 5s after begin_drain");
      }
    }
  }

  // Coverage: a full-length soak must have ended conversations in EVERY
  // FrontendStatus class — accepted, malformed, deadline, conn-reset,
  // overloaded, draining. A class never hit means a chaos shape silently
  // stopped exercising its path.
  const serve::Frontend::Stats fs = frontend.stats();
  if (ok && opt.campaigns >= 7) {
    for (serve::FrontendStatus s : serve::all_frontend_statuses()) {
      if (fs.status(s) == 0) {
        ++stats.broken_contracts;
        log << "COVERAGE GAP: FrontendStatus "
            << serve::frontend_status_name(s)
            << " never observed through the socket\n";
        ok = false;
      }
    }
  }
  // The chaos stayed in the transport: the warm pool behind the service
  // ends the soak at full strength.
  if (ok && service.pool().live_workers() != so.pool.workers) {
    ++stats.broken_contracts;
    log << "RESPAWN GAP: " << service.pool().live_workers() << " of "
        << so.pool.workers << " warm workers alive at end of soak\n";
    ok = false;
  }

  log << "summary certified=" << stats.certified
      << " attempts=" << stats.attempts << " conns=" << fs.conns_accepted;
  for (serve::FrontendStatus s : serve::all_frontend_statuses()) {
    log << " " << serve::frontend_status_name(s) << "=" << fs.status(s);
  }
  log << " clean-closes=" << fs.clean_closes
      << " wrong-answers=" << stats.wrong_answers
      << " broken-contracts=" << stats.broken_contracts << "\n";
  std::printf(
      "pfact_soak --net: %zu certified, %zu attempts, %llu conns "
      "(accepted %llu, malformed %llu, deadline %llu, conn-reset %llu, "
      "overloaded %llu, draining %llu), %zu wrong answers, "
      "%zu broken contracts\n",
      stats.certified, stats.attempts,
      static_cast<unsigned long long>(fs.conns_accepted),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kAccepted)),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kMalformedFrame)),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kDeadline)),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kConnReset)),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kOverloaded)),
      static_cast<unsigned long long>(
          fs.status(serve::FrontendStatus::kDraining)),
      stats.wrong_answers, stats.broken_contracts);
  if (!ok || stats.wrong_answers != 0 || stats.broken_contracts != 0) {
    return fail_exit(opt);
  }
  std::printf("pfact_soak: all net campaigns held the contract\n");
  return 0;
}

// --- shard mode: chaos against the sharded self-healing router --------------

// The kernel's verdict on a pid: the single state letter from
// /proc/<pid>/stat ('R' running, 'T' stopped, 'Z' zombie, ...), or '?' if
// the pid is gone. The wedge campaign needs this to prove its SIGSTOP froze
// a live process rather than landing harmlessly on an unreaped corpse.
char proc_state(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return '?';
  char line[512] = {0};
  char state = '?';
  if (std::fgets(line, sizeof(line), f) != nullptr) {
    // Field 3 follows the parenthesized comm, which may itself contain
    // parens — scan from the LAST ')'.
    const char* paren = std::strrchr(line, ')');
    if (paren != nullptr && paren[1] != '\0' && paren[2] != '\0') {
      state = paren[2];
    }
  }
  std::fclose(f);
  return state;
}

int run_shard_campaigns(const Options& opt, std::ofstream& log) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();

  serve::RouterOptions ro;
  ro.shards = 3;
  ro.service.dispatchers = 1;
  ro.service.queue_depth = 8;
  ro.service.cache_capacity = 32;
  ro.service.pool.workers = 1;
  ro.service.supervisor.retry.max_attempts = 3;
  ro.service.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  ro.service.supervisor.checkpoint_every = 2;
  ro.probe_interval = std::chrono::milliseconds{25};
  ro.probe_deadline = std::chrono::milliseconds{300};
  ro.restart.base_delay = std::chrono::milliseconds{5};
  ro.restart.max_delay = std::chrono::milliseconds{50};
  ro.restart.jitter_seed = opt.seed;
  serve::ShardRouter router(ro);

  // The unsharded baseline: the SAME service template in one process. Every
  // fresh certified answer the router hands out must match it bit for bit —
  // value AND pivot trace — whatever chaos the campaign staged, because a
  // failover re-runs the whole deterministic reduction rather than resuming
  // a half-trusted one. Memoized per content-address key so the baseline is
  // computed fresh (with a full trace) exactly once per distinct task.
  serve::ReductionService baseline(ro.service);
  std::map<std::string, std::pair<bool, factor::PivotTrace>> expected_runs;

  SoakStats stats;
  bool ok = true;
  std::uint64_t unique_id = 0;
  std::size_t sheds_survived = 0;
  std::size_t downs_survived = 0;

  auto fail = [&](std::size_t campaign, const char* what,
                  const std::string& body) {
    ++stats.broken_contracts;
    log << "campaign " << campaign << " " << what << "\n" << body << "\n";
    if (!opt.fail_dir.empty()) {
      std::ofstream dump(opt.fail_dir + "/shard_campaign" +
                             std::to_string(campaign) + ".txt",
                         std::ios::trunc);
      dump << what << "\n" << body << "\n";
    }
    ok = false;
  };

  // One answered (routed or failed-over) result against ground truth and
  // the unsharded baseline.
  auto check_answer = [&](std::size_t campaign, const ReductionTask& task,
                          const serve::RouteResult& r) {
    if (!r.response.certified || r.response.value != task.expected()) {
      if (r.response.certified) ++stats.wrong_answers;
      fail(campaign,
           r.response.certified ? "WRONG ANSWER through the router"
                                : "ANSWER NOT CERTIFIED",
           std::string("status=") + serve::router_status_name(r.status) +
               " shard=" + std::to_string(r.shard) + " " + task.describe());
      return false;
    }
    const std::string key =
        serve::ResultCache::key_for(task, Substrate::kDouble);
    auto it = expected_runs.find(key);
    if (it == expected_runs.end()) {
      const serve::ServiceResponse base = baseline.run(task);
      if (!base.report.certified || base.report.value != task.expected()) {
        fail(campaign, "UNSHARDED BASELINE NOT CERTIFIED",
             base.report.to_string());
        return false;
      }
      it = expected_runs
               .emplace(key, std::make_pair(base.report.value,
                                            base.report.final_report.trace))
               .first;
    }
    if (r.response.value != it->second.first) {
      ++stats.wrong_answers;
      fail(campaign, "SHARDED VALUE DIVERGED FROM UNSHARDED BASELINE",
           task.describe());
      return false;
    }
    // Cache hits legitimately travel without a trace; every fresh answer
    // must replay the baseline's pivot decisions event for event.
    if (!r.response.from_cache &&
        !traces_equal(r.response.report.trace, it->second.second)) {
      ++stats.wrong_answers;
      fail(campaign, "SHARDED TRACE DIVERGED FROM UNSHARDED BASELINE",
           task.describe() + " baseline=" +
               std::to_string(it->second.second.size()) + " events, sharded=" +
               std::to_string(r.response.report.trace.size()) + " events");
      return false;
    }
    ++stats.certified;
    return true;
  };

  // Submits `task` until an answer arrives, however long the chaos takes.
  // Every non-answer along the way must be a CLASSIFIED transient refusal —
  // the availability half of the contract: a request is never lost, only
  // answered or refused with a diagnostic a backoff loop can act on.
  auto answer_through_chaos = [&](std::size_t campaign,
                                  const ReductionTask& task) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const serve::RouteResult r = router.submit(task);
      ++stats.attempts;
      switch (r.status) {
        case serve::RouterStatus::kRouted:
        case serve::RouterStatus::kFailedOver:
          return check_answer(campaign, task, r);
        case serve::RouterStatus::kBrownoutShed:
          if (r.response.report.diagnostic != Diagnostic::kOverloaded ||
              r.response.certified) {
            fail(campaign, "BROWNOUT SHED NOT CLASSIFIED",
                 diagnostic_name(r.response.report.diagnostic));
            return false;
          }
          ++sheds_survived;
          break;
        case serve::RouterStatus::kAllShardsDown:
          if (classify_diagnostic(r.response.report.diagnostic) !=
                  FailureKind::kTransient ||
              r.response.certified) {
            fail(campaign, "FULL-OUTAGE REFUSAL NOT TRANSIENT",
                 diagnostic_name(r.response.report.diagnostic));
            return false;
          }
          ++downs_survived;
          break;
      }
      // A refusal is the router telling us to back off; oblige briefly so
      // the supervision loop gets cycles to heal the fleet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fail(campaign, "NEVER ANSWERED", task.describe());
    return false;
  };

  if (!router.wait_all_serving(std::chrono::seconds(30))) {
    fail(0, "FLEET NEVER CAME UP", "initial wait_all_serving timed out");
    return fail_exit(opt);
  }

  for (std::size_t campaign = 0; campaign < opt.campaigns && ok; ++campaign) {
    if (injected_violation(opt, campaign, log, stats)) {
      ok = false;
      break;
    }
    // The self-healing contract, asserted between EVERY pair of campaigns:
    // whatever the previous campaign destroyed, the fleet is back at full
    // serving strength before the next one starts.
    if (!router.wait_all_serving(std::chrono::seconds(30))) {
      fail(campaign, "FLEET NEVER HEALED",
           "wait_all_serving timed out between campaigns");
      break;
    }
    Stream rng{opt.seed, campaign};
    const std::size_t shape = campaign % 6;

    if (shape == 0) {
      // Clean cached round-trip: a healthy fleet routes a repeat task to
      // its home shard twice; both answers certify.
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(campaign, task)) break;
      if (!answer_through_chaos(campaign, task)) break;
      log << "campaign " << campaign << " shard-clean "
          << task.describe() << " ok\n";
      if (opt.verbose) {
        std::printf("campaign %zu shard-clean: ok\n", campaign);
      }
    } else if (shape == 1 || shape == 2) {
      // Kill the HOME shard mid-stream — SIGKILL on odd shapes, a genuine
      // SIGSEGV on even — and require the key to keep answering throughout
      // the outage (failover) and after the heal.
      const int sig = (shape == 1) ? SIGKILL : SIGSEGV;
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(campaign, task)) break;  // warm the key
      router.kill_shard_for_testing(router.home_shard(task), sig);
      if (!answer_through_chaos(campaign, task)) break;
      log << "campaign " << campaign << " shard-kill-"
          << (sig == SIGKILL ? "sigkill" : "sigsegv") << " "
          << task.describe() << " survived\n";
      if (opt.verbose) {
        std::printf("campaign %zu shard-kill-%s: survived\n", campaign,
                    sig == SIGKILL ? "sigkill" : "sigsegv");
      }
    } else if (shape == 3) {
      // Wedge: SIGSTOP freezes a shard's event loop while waitpid sees a
      // live child — only the probe deadline can catch it. The bulkhead
      // contract: the wedge costs that shard's capacity, never the
      // router's liveness, and the eviction SIGKILL leads to a heal.
      //
      // The inter-campaign wait_all_serving barrier is eventually
      // consistent: a status can lag the previous campaign's kill by one
      // supervision tick, so a first SIGSTOP may land on an unreaped corpse
      // (kill() succeeds on a zombie, freezes nothing). The wedge contract
      // is about LIVE shards, so confirm the stop actually froze a process
      // (/proc state T) and retry while the supervisor settles the fleet.
      const std::size_t victim = rng.pick(ro.shards);
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(campaign, task)) break;  // warm the key
      const serve::ShardRouter::Stats before = router.stats();
      bool wedged = false;
      const auto stop_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (!wedged && std::chrono::steady_clock::now() < stop_deadline) {
        const pid_t pid = router.shard_pid(victim);
        if (pid > 0 && router.kill_shard_for_testing(victim, SIGSTOP) &&
            router.shard_pid(victim) == pid && proc_state(pid) == 'T') {
          wedged = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!wedged) {
        fail(campaign, "WEDGE NEVER LANDED",
             "no live shard process entered /proc state T under SIGSTOP");
        break;
      }
      if (!answer_through_chaos(campaign, task)) break;  // serve through it
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (router.stats().evictions == before.evictions &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (router.stats().evictions == before.evictions) {
        const serve::ShardRouter::Stats after = router.stats();
        std::string detail =
            "probe deadline did not SIGKILL the SIGSTOPped shard: victim=" +
            std::to_string(victim) + " probes+" +
            std::to_string(after.probes - before.probes) +
            " probe-failures+" +
            std::to_string(after.probe_failures - before.probe_failures) +
            " restarts+" + std::to_string(after.restarts - before.restarts) +
            " statuses=";
        for (std::size_t i = 0; i < ro.shards; ++i) {
          detail += std::string(i ? "," : "") +
                    serve::shard_status_name(router.shard_status(i));
        }
        fail(campaign, "WEDGE NEVER EVICTED", detail);
        break;
      }
      log << "campaign " << campaign << " shard-wedge victim=" << victim
          << " evicted\n";
      if (opt.verbose) {
        std::printf("campaign %zu shard-wedge: evicted\n", campaign);
      }
    } else if (shape == 4) {
      // Brownout entry/exit: with one shard down the router must shed a
      // never-seen key as classified kOverloaded while a warm key keeps
      // answering; once the fleet heals, the same fresh key is admitted.
      const ReductionTask& warm = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(campaign, warm)) break;
      router.kill_shard_for_testing(rng.pick(ro.shards), SIGKILL);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (!router.browned_out() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!router.browned_out()) {
        fail(campaign, "BROWNOUT NEVER ENTERED",
             "shard killed but browned_out() stayed false");
        break;
      }
      const ReductionTask fresh = unique_chain_task(unique_id++);
      const serve::RouteResult shed = router.submit(fresh);
      if (shed.status == serve::RouterStatus::kBrownoutShed) {
        if (shed.response.report.diagnostic != Diagnostic::kOverloaded ||
            classify_diagnostic(shed.response.report.diagnostic) !=
                FailureKind::kTransient) {
          fail(campaign, "BROWNOUT SHED NOT CLASSIFIED",
               diagnostic_name(shed.response.report.diagnostic));
          break;
        }
        ++sheds_survived;
      }  // a heal racing the submit is legal: the shed is best-effort here
      if (!answer_through_chaos(campaign, warm)) break;  // warm keys survive
      if (!router.wait_all_serving(std::chrono::seconds(30))) {
        fail(campaign, "BROWNOUT NEVER EXITED",
             "fleet did not heal after the brownout campaign");
        break;
      }
      if (!answer_through_chaos(campaign, fresh)) break;  // admitted again
      log << "campaign " << campaign << " shard-brownout "
          << (shed.status == serve::RouterStatus::kBrownoutShed
                  ? "shed-then-admitted"
                  : "healed-before-shed")
          << "\n";
      if (opt.verbose) {
        std::printf("campaign %zu shard-brownout: ok\n", campaign);
      }
    } else {
      // Fleet kill / restart storm: SIGKILL every shard at once. The very
      // next submit must be the classified all-shards-down refusal (or a
      // lucky failover into an already-respawned shard — also legal), and
      // the supervision loop must restart the whole fleet.
      const std::uint64_t restarts_before = router.stats().restarts;
      for (std::size_t i = 0; i < ro.shards; ++i) {
        router.kill_shard_for_testing(i, SIGKILL);
      }
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(campaign, task)) break;
      if (!router.wait_all_serving(std::chrono::seconds(30))) {
        fail(campaign, "RESTART STORM NEVER HEALED",
             "fleet did not return to serving after a full kill");
        break;
      }
      if (router.stats().restarts < restarts_before + ro.shards) {
        fail(campaign, "RESTARTS NOT ACCOUNTED",
             "fewer respawns than shards killed");
        break;
      }
      log << "campaign " << campaign << " shard-fleet-kill survived\n";
      if (opt.verbose) {
        std::printf("campaign %zu shard-fleet-kill: survived\n", campaign);
      }
    }
  }

  const serve::ShardRouter::Stats rs = router.stats();
  // Every submit classified as exactly one RouterStatus: the ledger sums.
  std::uint64_t classified = 0;
  for (serve::RouterStatus s : serve::all_router_statuses()) {
    classified += rs.status(s);
  }
  if (ok && classified != rs.submits) {
    ++stats.broken_contracts;
    log << "LEDGER GAP: " << rs.submits << " submits but " << classified
        << " classified endings\n";
    ok = false;
  }
  if (ok && opt.campaigns >= 6) {
    // Full taxonomy coverage, both enums: a class never observed means a
    // chaos shape silently stopped exercising its path.
    for (serve::ShardStatus s : serve::all_shard_statuses()) {
      if (rs.shard_status_seen[static_cast<std::size_t>(s)] == 0) {
        ++stats.broken_contracts;
        log << "COVERAGE GAP: ShardStatus " << serve::shard_status_name(s)
            << " never observed\n";
        ok = false;
      }
    }
    for (serve::RouterStatus s : serve::all_router_statuses()) {
      if (rs.status(s) == 0) {
        ++stats.broken_contracts;
        log << "COVERAGE GAP: RouterStatus " << serve::router_status_name(s)
            << " never observed\n";
        ok = false;
      }
    }
    // Cache locality: consistent hashing must keep most answers on their
    // home shard even while campaigns keep killing it. The floor is
    // deliberately loose (a quarter) — failover storms legitimately move
    // traffic — but a broken ring (everything failing over) lands near 0.
    if (rs.answered_by_home * 4 < rs.answered) {
      ++stats.broken_contracts;
      log << "LOCALITY GAP: only " << rs.answered_by_home << " of "
          << rs.answered << " answers came from the home shard\n";
      ok = false;
    }
  }

  log << "summary certified=" << stats.certified
      << " submits=" << rs.submits << " routed="
      << rs.status(serve::RouterStatus::kRouted) << " failed-over="
      << rs.status(serve::RouterStatus::kFailedOver) << " brownout-shed="
      << rs.status(serve::RouterStatus::kBrownoutShed) << " all-shards-down="
      << rs.status(serve::RouterStatus::kAllShardsDown)
      << " failover-hops=" << rs.failover_hops << " restarts=" << rs.restarts
      << " evictions=" << rs.evictions << " probes=" << rs.probes
      << " probe-failures=" << rs.probe_failures
      << " answered=" << rs.answered
      << " answered-by-home=" << rs.answered_by_home
      << " wrong-answers=" << stats.wrong_answers
      << " broken-contracts=" << stats.broken_contracts << "\n";
  std::printf(
      "pfact_soak --shard: %zu certified, %llu submits "
      "(routed %llu, failed-over %llu, brownout-shed %llu, "
      "all-shards-down %llu), %llu restarts, %llu evictions, "
      "%llu/%llu answers by home shard, %zu sheds survived, "
      "%zu outages survived, %zu wrong answers, %zu broken contracts\n",
      stats.certified, static_cast<unsigned long long>(rs.submits),
      static_cast<unsigned long long>(rs.status(serve::RouterStatus::kRouted)),
      static_cast<unsigned long long>(
          rs.status(serve::RouterStatus::kFailedOver)),
      static_cast<unsigned long long>(
          rs.status(serve::RouterStatus::kBrownoutShed)),
      static_cast<unsigned long long>(
          rs.status(serve::RouterStatus::kAllShardsDown)),
      static_cast<unsigned long long>(rs.restarts),
      static_cast<unsigned long long>(rs.evictions),
      static_cast<unsigned long long>(rs.answered_by_home),
      static_cast<unsigned long long>(rs.answered), sheds_survived,
      downs_survived, stats.wrong_answers, stats.broken_contracts);
  if (!ok || stats.wrong_answers != 0 || stats.broken_contracts != 0) {
    return fail_exit(opt);
  }
  std::printf("pfact_soak: all shard campaigns held the contract\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--campaigns") {
      opt.campaigns = static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--log") {
      opt.log_path = value();
    } else if (arg == "--fail-dir") {
      opt.fail_dir = value();
    } else if (arg == "--kill-only") {
      opt.kill_only = true;
    } else if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--net") {
      opt.net = true;
    } else if (arg == "--shard") {
      opt.shard = true;
    } else if (arg == "--inject-violation") {
      opt.inject_violation =
          static_cast<std::size_t>(std::strtoull(value(), nullptr, 10));
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: pfact_soak [--campaigns N] [--seed S] [--log FILE] "
                   "[--fail-dir DIR] [--kill-only] [--serve] [--net] "
                   "[--shard] [--inject-violation N] [--verbose]\n");
      return 2;
    }
  }

  std::ofstream log(opt.log_path, std::ios::trunc);
  if (!log) {
    std::fprintf(stderr, "cannot open log file %s\n", opt.log_path.c_str());
    return 2;
  }
  log << "pfact_soak seed=" << opt.seed << " campaigns=" << opt.campaigns
      << (opt.kill_only ? " kill-only" : "") << (opt.serve ? " serve" : "")
      << (opt.net ? " net" : "") << (opt.shard ? " shard" : "") << "\n";

  if (opt.shard) return run_shard_campaigns(opt, log);
  if (opt.net) return run_net_campaigns(opt, log);
  if (opt.serve) return run_serve_campaigns(opt, log);
  if (opt.kill_only) return run_kill_campaigns(opt, log);

  const std::vector<ReductionTask> pool = build_task_pool();
  const std::vector<FaultClass> faults = all_fault_classes();
  SoakStats stats;
  bool ok = true;

  for (std::size_t campaign = 0; campaign < opt.campaigns && ok; ++campaign) {
    if (injected_violation(opt, campaign, log, stats)) {
      ok = false;
      break;
    }
    Stream rng{opt.seed, campaign};
    const ReductionTask& task = pool[rng.pick(pool.size())];

    ResilientOptions ro;
    ro.retry.max_attempts = 3;
    ro.retry.base_delay = std::chrono::milliseconds{1};
    ro.retry.jitter_seed = rng.next();
    // No sleeper installed: backoffs are recorded, not slept — the campaign
    // stream is wall-clock independent.

    const std::uint64_t shape = rng.pick(5);
    const char* shape_name = "?";
    CheckpointStore store;

    switch (shape) {
      case 0: {  // fault-sweep: one persistent fault across all attempts
        shape_name = "fault-sweep";
        FaultPlan plan;
        plan.fault = faults[rng.pick(faults.size())];
        plan.seed = rng.next();
        ro.checkpoint_every = 2 + rng.pick(4);
        ro.store = &store;
        ro.fault_for_attempt = [plan](std::size_t) { return plan; };
        break;
      }
      case 1: {  // flip-ladder: rounding flip, ladder starts on SoftFloat
        shape_name = "flip-ladder";
        if (task.algorithm == Algorithm::kGqr) {
          // GQR has no exact rung to escalate into; give it the full ladder
          // from the bottom instead (the flip is harmless on long double).
          ro.ladder = {Substrate::kDouble, Substrate::kSoftFloat53};
        } else {
          ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
        }
        FaultPlan plan;
        plan.fault = FaultClass::kRoundingFlip;
        plan.seed = rng.next();
        ro.fault_for_attempt = [plan](std::size_t) { return plan; };
        break;
      }
      case 2: {  // preemption storm: kill every attempt, finish by resume
        shape_name = "preemption";
        ro.checkpoint_every = 2;
        ro.store = &store;
        ro.limits.max_steps = 3 + rng.pick(3);
        // Progress per kill is ~checkpoint_every steps, so crossing the
        // largest pool task (order ~10^2) takes a few hundred kills.
        ro.retry.max_attempts = 1024;
        break;
      }
      case 3: {  // torn-write: preemption plus a blob corrupted at save
        shape_name = "torn-write";
        ro.checkpoint_every = 2;
        ro.store = &store;
        ro.limits.max_steps = 4;
        ro.retry.max_attempts = 1024;
        FaultPlan plan;
        plan.fault = FaultClass::kTornWrite;
        plan.seed = rng.next();
        ro.fault_for_attempt = [plan](std::size_t attempt) {
          // Tear only the first attempt's snapshot so the campaign also
          // proves recovery, not just rejection.
          return attempt == 1 ? plan : FaultPlan{};
        };
        break;
      }
      default: {  // kill-resume: explicit crash/resume equivalence
        shape_name = "kill-resume";
        // Uninterrupted baseline.
        ResilientOptions base;
        base.retry.max_attempts = 1;
        const ResilientReport baseline = resilient_run(task, base);
        if (!baseline.certified) {
          ++stats.broken_contracts;
          log << "campaign " << campaign << " BROKEN CONTRACT: clean run of "
              << task.describe() << " not certified\n"
              << baseline.to_string() << "\n";
          ok = false;
          break;
        }
        // Kill a checkpointing run at a step boundary...
        const std::size_t every = 2 + rng.pick(3);
        ResilientOptions crash;
        crash.retry.max_attempts = 1;
        crash.checkpoint_every = every;
        crash.store = &store;
        crash.limits.max_steps = every * (1 + rng.pick(3));
        const ResilientReport crashed = resilient_run(task, crash);
        tally(crashed, stats);
        // The killed run may legitimately finish early (the budget can
        // exceed the task), but a certificate it does hand out must be the
        // truth — a certified-wrong crash run is the worst possible answer.
        if (crashed.certified && crashed.value != baseline.value) {
          ++stats.wrong_answers;
          log << "campaign " << campaign
              << " WRONG ANSWER from interrupted run: " << task.describe()
              << " baseline value=" << baseline.value << "; crashed:\n"
              << crashed.to_string() << "\n";
          ok = false;
          break;
        }
        // ...and hand the surviving store to a fresh engine call.
        ResilientOptions resume;
        resume.retry.max_attempts = 2;
        resume.checkpoint_every = every;
        resume.store = &store;
        const ResilientReport resumed = resilient_run(task, resume);
        tally(resumed, stats);
        if (!resumed.certified || resumed.value != baseline.value ||
            !traces_equal(resumed.final_report.trace,
                          baseline.final_report.trace)) {
          ++stats.broken_contracts;
          log << "campaign " << campaign
              << " CRASH/RESUME DIVERGENCE: " << task.describe()
              << " baseline value=" << baseline.value
              << " trace=" << baseline.final_report.trace.size()
              << " events; resumed:\n"
              << resumed.to_string() << "\n";
          ok = false;
          break;
        }
        ++stats.certified;
        if (opt.verbose) {
          std::printf("campaign %zu %s %s: resumed identically (%zu events)\n",
                      campaign, shape_name, task.describe().c_str(),
                      resumed.final_report.trace.size());
        }
        log << "campaign " << campaign << " " << shape_name << " "
            << task.describe() << " ok\n";
        continue;
      }
    }
    if (!ok) break;

    const ResilientReport rep = resilient_run(task, ro);
    tally(rep, stats);
    ok = check_verdict(task, rep, opt, &store, campaign, log, stats);
    if (opt.verbose) {
      std::printf("campaign %zu %s %s: %s\n", campaign, shape_name,
                  task.describe().c_str(),
                  rep.certified ? "certified" : "terminal");
    }
    log << "campaign " << campaign << " " << shape_name << " "
        << task.describe() << " "
        << (rep.certified ? "certified" : "terminal") << " attempts="
        << rep.attempts.size() << " escalations=" << rep.escalations << "\n";
  }

  log << "summary certified=" << stats.certified
      << " terminal=" << stats.terminal << " attempts=" << stats.attempts
      << " escalations=" << stats.escalations << " resumes=" << stats.resumes
      << " checkpoint-rejections=" << stats.checkpoint_rejections
      << " wrong-answers=" << stats.wrong_answers
      << " broken-contracts=" << stats.broken_contracts << "\n";
  std::printf(
      "pfact_soak: %zu certified, %zu terminal, %zu attempts, "
      "%zu escalations, %zu resumes, %zu checkpoint rejections, "
      "%zu wrong answers, %zu broken contracts\n",
      stats.certified, stats.terminal, stats.attempts, stats.escalations,
      stats.resumes, stats.checkpoint_rejections, stats.wrong_answers,
      stats.broken_contracts);
  if (!ok || stats.wrong_answers != 0 || stats.broken_contracts != 0) {
    return fail_exit(opt);
  }
  std::printf("pfact_soak: all campaigns held the contract\n");
  return 0;
}
