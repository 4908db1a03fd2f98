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
// answers — every certified answer is the circuit's value, and every fresh
// one replays an unsharded baseline service's pivot trace event for event;
// every submit classified as exactly one RouterStatus (the ledger must
// sum); full ShardStatus AND RouterStatus coverage; the fleet back at full
// serving strength after every campaign; and a cache-locality floor (at
// least a quarter of answers come from the consistent-hash home shard
// despite the chaos).
//
// One driver runs every mode (DESIGN.md §9): the Soak ledger with its one
// campaign loop and one failure path, and one kModes row per mode.
//
// Usage: pfact_soak [--campaigns N] [--seed S] [--log FILE] [--fail-dir DIR]
//                   [--kill-only | --serve | --net | --shard]
//                   [--inject-violation N]
//
// Exit code 0 iff every campaign held the contract; a violation exits 1 and
// prints the seed and mode flag for replay; a command line it cannot run
// exits 2. --inject-violation N fabricates a violation at campaign N — the
// regression seam proving the failure path stays wired. The log (one line
// per campaign, then the summary stdout repeats) and the --fail-dir
// evidence are the CI artifacts.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
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

// Deterministic per-campaign stream: mix64 of (seed, campaign, salt).
struct Stream {
  std::uint64_t seed;
  std::uint64_t campaign;
  std::uint64_t salt = 0;
  std::uint64_t next() { return mix64(seed + campaign * 0x1000003ull, ++salt); }
  std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

class Soak;
// A mode's summary `key=value` pairs, between `certified=` and
// `wrong-answers=`.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

// One row per mode: its flag ("" for the in-process default), the word that
// names it in the log header and evidence files, the campaigns one rotation
// of its shapes takes, and the function that runs its shapes.
struct Mode {
  const char* flag;
  const char* word;
  std::size_t rotation;
  Counts (*run)(Soak&);
};

struct Options {
  std::size_t campaigns = 200;
  std::uint64_t seed = 1;
  std::string log_path = "soak_log.txt";
  std::string fail_dir;
  const Mode* mode = nullptr;
  // Campaign index at which to fabricate a contract violation (SIZE_MAX =
  // never): the regression seam that keeps the failure path wired to a
  // nonzero exit and a printed seed.
  std::size_t inject_violation = SIZE_MAX;
};

// The ledger of one soak, whatever its mode.
class Soak {
 public:
  Soak(const Options& opt, std::ostream& log) : opt_(opt), log_(log) {}

  bool ok() const { return ok_; }
  std::uint64_t seed() const { return opt_.seed; }

  // The one campaign loop, and the --inject-violation seam. A violation ends
  // it; after a clean loop the end-of-soak checks file under --campaigns.
  template <class Campaign>
  void run(Campaign&& campaign) {
    while (ok_ && campaign_ < opt_.campaigns) {
      if (campaign_ == opt_.inject_violation) {
        fail("INJECTED VIOLATION (--inject-violation)");
        return;
      }
      Stream rng{opt_.seed, campaign_};
      campaign(campaign_, rng);
      if (ok_) ++campaign_;
    }
  }

  // The campaign's log line: "campaign N " and whatever the caller streams.
  std::ostream& line() { return log_ << "campaign " << campaign_ << " "; }

  // A broken contract. Returns false, for `return soak.fail(...)`.
  bool fail(const std::string& what, const std::string& body = "",
            const CheckpointStore* store = nullptr) {
    ++broken_contracts_;
    return record(what, body, store);
  }

  // The zero-wrong-answer check: a certificate is the circuit's value.
  bool truth(const ReductionTask& task, bool value, const std::string& context,
             const std::string& body, const CheckpointStore* store = nullptr) {
    if (value == task.expected()) return true;
    ++wrong_answers_;
    return record("WRONG ANSWER: " + context + " certified " +
                      (value ? "true" : "false") + " but truth is " +
                      (task.expected() ? "true" : "false"),
                  body, store);
  }

  // An answer the campaign needs: certified, true, and counted.
  bool answer(const ReductionTask& task, bool certified, bool value,
              const std::string& context, const std::string& body,
              const CheckpointStore* store = nullptr) {
    if (!certified) return fail("NOT CERTIFIED: " + context, body, store);
    if (!truth(task, value, context, body, store)) return false;
    ++certified_;
    return true;
  }

  // An end-of-soak contract, checked while the soak is clean and after
  // `rotations` full shape rotations.
  void expect(bool held, const std::string& what, const std::string& body,
              std::size_t rotations = 0) {
    if (ok_ && !held && opt_.campaigns >= rotations * opt_.mode->rotation) {
      fail(what, body);
    }
  }

  // Coverage after a full rotation: every class of `sweep` was observed. A
  // class never hit means a chaos shape silently stopped exercising its path.
  template <class E, class Seen>
  void cover(const char* taxonomy, const std::vector<E>& sweep,
             const char* (*name)(E), Seen seen) {
    std::string missing;
    for (E e : sweep) {
      if (!seen(e)) missing += std::string(" ") + name(e);
    }
    expect(missing.empty(), std::string("COVERAGE GAP: ") + taxonomy,
           "never observed:" + missing, 1);
  }

  // The one summary and exit. A failure prints its replay handle (seed and
  // mode flag) last, so it survives any truncation of the output.
  int finish(const Counts& counts) {
    std::ostringstream summary;
    summary << "summary certified=" << certified_;
    for (const auto& [key, n] : counts) summary << " " << key << "=" << n;
    summary << " wrong-answers=" << wrong_answers_
            << " broken-contracts=" << broken_contracts_;
    log_ << summary.str() << "\n";
    const std::string flag =
        *opt_.mode->flag ? std::string(" ") + opt_.mode->flag : "";
    std::printf("pfact_soak%s: %s\n", flag.c_str(), summary.str().c_str());
    if (!ok_) {
      std::printf("pfact_soak: FAILED seed=%llu%s (see %s)\n",
                  static_cast<unsigned long long>(opt_.seed), flag.c_str(),
                  opt_.log_path.c_str());
      return 1;
    }
    std::printf("pfact_soak%s: all campaigns held the contract\n",
                flag.c_str());
    return 0;
  }

 private:
  // The only failure path: the violation is logged under its campaign and
  // left in --fail-dir as [<word>_]campaign<N>.txt, with the checkpoint
  // store's blobs beside it as [<word>_]campaign<N>_step<S>.ckpt.
  bool record(const std::string& what, const std::string& body,
              const CheckpointStore* store) {
    ok_ = false;
    log_ << "campaign " << campaign_ << " " << what << "\n";
    if (!body.empty()) log_ << body << "\n";
    if (opt_.fail_dir.empty()) return false;
    const std::string word = opt_.mode->word;
    const std::string stem = opt_.fail_dir + "/" +
                             (word.empty() ? "" : word + "_") + "campaign" +
                             std::to_string(campaign_);
    std::ofstream(stem + ".txt", std::ios::app) << what << "\n"
                                                << body << "\n";
    if (store != nullptr) {
      for (const auto& [step, blob] : store->blobs()) {
        write_checkpoint_file(stem + "_step" + std::to_string(step) + ".ckpt",
                              blob);
      }
    }
    return false;
  }

  const Options& opt_;
  std::ostream& log_;
  std::size_t campaign_ = 0;
  bool ok_ = true;
  std::uint64_t certified_ = 0;
  std::uint64_t wrong_answers_ = 0;  // must stay 0
  std::uint64_t broken_contracts_ = 0;
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

// --- in-process campaigns through resilient_run ----------------------------

constexpr const char* kInProcessShapes[] = {
    "fault-sweep", "flip-ladder", "preemption", "torn-write", "kill-resume"};

Counts run_in_process(Soak& soak) {
  const std::vector<ReductionTask> pool = build_task_pool();
  const std::vector<FaultClass> faults = all_fault_classes();
  std::uint64_t terminal = 0, attempts = 0, escalations = 0, resumes = 0,
                rejections = 0;
  auto tally = [&](const ResilientReport& rep) {
    attempts += rep.attempts.size();
    escalations += rep.escalations;
    for (const AttemptRecord& a : rep.attempts) {
      if (a.resumed) ++resumes;
      if (a.diagnostic == Diagnostic::kCheckpointCorrupt) ++rejections;
    }
  };

  soak.run([&](std::size_t, Stream& rng) {
    const ReductionTask& task = pool[rng.pick(pool.size())];
    ResilientOptions ro;
    ro.retry.max_attempts = 3;
    ro.retry.base_delay = std::chrono::milliseconds{1};
    ro.retry.jitter_seed = rng.next();
    // No sleeper installed: backoffs are recorded, not slept — the campaign
    // stream is wall-clock independent.

    const std::uint64_t shape = rng.pick(std::size(kInProcessShapes));
    const std::string name =
        std::string(kInProcessShapes[shape]) + " " + task.describe();
    CheckpointStore store;
    FaultPlan plan;

    switch (shape) {
      case 0:  // fault-sweep: one persistent fault across all attempts
        plan.fault = faults[rng.pick(faults.size())];
        plan.seed = rng.next();
        ro.checkpoint_every = 2 + rng.pick(4);
        ro.store = &store;
        ro.fault_for_attempt = [plan](std::size_t) { return plan; };
        break;
      case 1:  // flip-ladder: rounding flip, ladder starts on SoftFloat
        if (task.algorithm == Algorithm::kGqr) {
          // GQR has no exact rung to escalate into; give it the full ladder
          // from the bottom instead (the flip is harmless on long double).
          ro.ladder = {Substrate::kDouble, Substrate::kSoftFloat53};
        } else {
          ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
        }
        plan.fault = FaultClass::kRoundingFlip;
        plan.seed = rng.next();
        ro.fault_for_attempt = [plan](std::size_t) { return plan; };
        break;
      case 2:  // preemption storm: kill every attempt, finish by resume
        ro.checkpoint_every = 2;
        ro.store = &store;
        ro.limits.max_steps = 3 + rng.pick(3);
        // Progress per kill is ~checkpoint_every steps, so crossing the
        // largest pool task (order ~10^2) takes a few hundred kills.
        ro.retry.max_attempts = 1024;
        break;
      case 3:  // torn-write: preemption plus a blob corrupted at save
        ro.checkpoint_every = 2;
        ro.store = &store;
        ro.limits.max_steps = 4;
        ro.retry.max_attempts = 1024;
        plan.fault = FaultClass::kTornWrite;
        plan.seed = rng.next();
        ro.fault_for_attempt = [plan](std::size_t attempt) {
          // Tear only the first attempt's snapshot so the campaign also
          // proves recovery, not just rejection.
          return attempt == 1 ? plan : FaultPlan{};
        };
        break;
      default: {  // kill-resume: explicit crash/resume equivalence
        // Uninterrupted baseline.
        ResilientOptions base;
        base.retry.max_attempts = 1;
        const ResilientReport baseline = resilient_run(task, base);
        if (!baseline.certified) {
          soak.fail("BROKEN CONTRACT: clean run of " + task.describe() +
                        " not certified",
                    baseline.to_string());
          return;
        }
        if (!soak.truth(task, baseline.value, "clean " + name,
                        baseline.to_string())) {
          return;
        }
        // Kill a checkpointing run at a step boundary...
        const std::size_t every = 2 + rng.pick(3);
        ResilientOptions crash;
        crash.retry.max_attempts = 1;
        crash.checkpoint_every = every;
        crash.store = &store;
        crash.limits.max_steps = every * (1 + rng.pick(3));
        const ResilientReport crashed = resilient_run(task, crash);
        tally(crashed);
        // The killed run may legitimately finish early (the budget can
        // exceed the task), but a certificate it does hand out must be the
        // truth — a certified-wrong crash run is the worst possible answer.
        if (crashed.certified &&
            !soak.truth(task, crashed.value, "interrupted " + name,
                        crashed.to_string(), &store)) {
          return;
        }
        // ...and hand the surviving store to a fresh engine call.
        ResilientOptions resume;
        resume.retry.max_attempts = 2;
        resume.checkpoint_every = every;
        resume.store = &store;
        const ResilientReport resumed = resilient_run(task, resume);
        tally(resumed);
        if (!soak.answer(task, resumed.certified, resumed.value,
                         "resumed " + name, resumed.to_string(), &store)) {
          return;
        }
        if (resumed.final_report.trace != baseline.final_report.trace) {
          soak.fail("CRASH/RESUME DIVERGENCE: " + name + " baseline trace=" +
                        std::to_string(baseline.final_report.trace.size()) +
                        " events; resumed:",
                    resumed.to_string(), &store);
          return;
        }
        soak.line() << name << " ok\n";
        return;
      }
    }

    const ResilientReport rep = resilient_run(task, ro);
    tally(rep);
    if (rep.certified) {
      if (!soak.answer(task, true, rep.value, name, rep.to_string(), &store)) {
        return;
      }
    } else {
      ++terminal;
      // A terminal failure must be a *classified* one — the supervisor never
      // gives up with kOk or an unexplained success-kind.
      if (rep.outcome == FailureKind::kSuccess ||
          rep.final_report.diagnostic == Diagnostic::kOk) {
        soak.fail("BROKEN CONTRACT: terminal report carries kOk",
                  rep.to_string(), &store);
        return;
      }
    }
    soak.line() << name << " " << (rep.certified ? "certified" : "terminal")
                << " attempts=" << rep.attempts.size()
                << " escalations=" << rep.escalations << "\n";
  });

  return {{"terminal", terminal},
          {"attempts", attempts},
          {"escalations", escalations},
          {"resumes", resumes},
          {"checkpoint-rejections", rejections}};
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
constexpr const KillShape& kWatchdogShape = kKillShapes[3];
static_assert(kWatchdogShape.expect_exit == serve::WorkerExit::kWatchdog);

// The job that stages `shape`: attempt 1's worker dies the shape's way after
// `after_saves` checkpoint saves, and the next attempt may certify.
// Campaigns draw it from {0, 1}: die before any save, or right after the
// first. Capped at 1 because the smallest pool tasks may stream only one
// snapshot — a trigger that never fires would let attempt 1 complete
// cleanly and trip the misclassification check.
serve::JobOptions kill_job(const KillShape& shape, std::uint64_t after_saves) {
  serve::JobOptions job;
  job.kill_for_attempt = [&shape, after_saves](std::size_t attempt) {
    serve::KillPlan kill;
    if (attempt == 1) {
      kill.mode = shape.mode;
      kill.after_saves = after_saves;
    }
    return kill;
  };
  if (shape.watchdog) job.watchdog = std::chrono::milliseconds{200};
  if (shape.cpu_rlimit) job.rlimits.cpu_seconds = 1;
  return job;
}

// The victim's death was classified exactly as the taxonomy promises.
bool kill_classified(Soak& soak, const KillShape& shape,
                     const serve::SupervisedReport& rep) {
  if (!rep.attempts.empty() &&
      rep.attempts.front().diagnostic == shape.expect_diag) {
    return true;
  }
  return soak.fail(std::string(shape.name) + " KILL MISCLASSIFIED: expected " +
                       diagnostic_name(shape.expect_diag) + ", got " +
                       (rep.attempts.empty()
                            ? "no attempts"
                            : diagnostic_name(rep.attempts.front().diagnostic)),
                   rep.to_string());
}

// Coverage: every death class the pool can report was really produced and
// survived — except kProtocolError (no KillPlan yields exit-0 without a
// result frame) and kForkFailure (real fork exhaustion cannot be staged on
// demand); tests/serve/test_warm_pool.cpp produces both through the pool's
// fork seam.
void cover_worker_exits(Soak& soak,
                        const std::set<serve::WorkerExit>& observed) {
  soak.cover("WorkerExit", serve::all_worker_exits(), serve::worker_exit_name,
             [&](serve::WorkerExit e) {
               return e == serve::WorkerExit::kProtocolError ||
                      e == serve::WorkerExit::kForkFailure ||
                      observed.count(e) > 0;
             });
}

// The retry and checkpoint policy of every supervised job in the soak.
serve::SupervisorOptions supervisor_policy() {
  serve::SupervisorOptions so;
  so.retry.max_attempts = 3;
  so.retry.base_delay = std::chrono::milliseconds{1};
  so.checkpoint_every = 2;
  return so;
}

Counts run_kill_only(Soak& soak) {
  const std::vector<ReductionTask> pool_tasks = build_task_pool();
  // A fresh worker process for every attempt.
  serve::WarmPool pool({.workers = 1, .recycle_after = 1});
  std::set<serve::WorkerExit> observed;
  std::uint64_t attempts = 0, resume_handoffs = 0;

  soak.run([&](std::size_t campaign, Stream& rng) {
    const ReductionTask& task = pool_tasks[rng.pick(pool_tasks.size())];
    // Cycle shapes deterministically so a short soak still covers them all.
    const KillShape& shape = kKillShapes[campaign % std::size(kKillShapes)];
    CheckpointStore store;
    serve::SupervisorOptions so = supervisor_policy();
    so.retry.jitter_seed = rng.next();
    so.store = &store;
    const serve::JobOptions job = kill_job(shape, rng.pick(2));
    so.kill_for_attempt = job.kill_for_attempt;
    so.watchdog = job.watchdog;
    so.rlimits = job.rlimits;

    const serve::SupervisedReport rep = supervised_run(pool, task, so);
    attempts += rep.attempts.size();
    resume_handoffs += rep.resume_handoffs;
    // Zero wrong answers, across a real process death.
    const std::string name = std::string(shape.name) + " " + task.describe();
    if (!soak.answer(task, rep.certified, rep.value, name, rep.to_string(),
                     &store) ||
        !kill_classified(soak, shape, rep)) {
      return;
    }
    observed.insert(shape.expect_exit);
    observed.insert(rep.last_worker_exit);  // kCompleted on certification
    soak.line() << name << " certified attempts=" << rep.attempts.size()
                << " resume-handoffs=" << rep.resume_handoffs << "\n";
  });

  cover_worker_exits(soak, observed);
  const serve::WarmPool::Stats ps = pool.stats();
  return {{"attempts", attempts},
          {"workers-spawned", ps.spawned},
          {"workers-crashed", ps.crashed},
          {"watchdog-kills", ps.watchdog_kills},
          {"resume-handoffs", resume_handoffs}};
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

// Auto-respawn: every killed, recycled, or retired warm worker was replaced
// — the pool behind `service` ends the soak at full strength.
void expect_full_pool(Soak& soak, const serve::ReductionService& service,
                      std::size_t workers) {
  soak.expect(service.pool().live_workers() == workers, "RESPAWN GAP",
              std::to_string(service.pool().live_workers()) + " of " +
                  std::to_string(workers) +
                  " warm workers alive at end of soak");
}

Counts run_serve(Soak& soak) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();
  // A small queue on purpose: overload bursts must shed. Quota retirements
  // happen during the soak.
  serve::ReductionService service({.dispatchers = 2,
                                   .queue_depth = 4,
                                   .cache_capacity = 64,
                                   .pool = {.workers = 2, .recycle_after = 8},
                                   .supervisor = supervisor_policy()});
  std::set<serve::WorkerExit> observed;
  std::uint64_t attempts = 0, unique_id = 0;

  // One admitted-and-dispatched response, held to the zero-wrong-answer
  // contract.
  auto served = [&](const ReductionTask& task,
                    const serve::ServiceResponse& resp,
                    const std::string& context) {
    attempts += resp.report.attempts.size();
    if (!soak.answer(task, resp.report.certified, resp.report.value, context,
                     resp.report.to_string())) {
      return false;
    }
    if (!resp.from_cache) observed.insert(resp.report.last_worker_exit);
    return true;
  };

  // A dispatcher wedge: attempt 1 spins until the 200 ms watchdog kills
  // it, attempt 2 certifies (which also feeds kWatchdog into the coverage
  // set). The overload and deadline shapes pin both dispatchers with it.
  const serve::JobOptions wedge = kill_job(kWatchdogShape, 0);

  soak.run([&](std::size_t campaign, Stream& rng) {
    const std::size_t shape = campaign % 7;

    if (shape < std::size(kKillShapes)) {
      // Real-kill job through the full service path: admission -> bounded
      // queue -> warm worker -> supervised retry/resume. The task is unique
      // per campaign, so the kill always reaches a live worker.
      const KillShape& ks = kKillShapes[shape];
      const ReductionTask task = unique_chain_task(unique_id++);
      const serve::ServiceResponse resp =
          service.run(task, kill_job(ks, rng.pick(2)));
      if (resp.admission != serve::Admission::kAccepted) {
        soak.fail("LONE JOB SHED: an idle service must admit",
                  resp.report.to_string());
        return;
      }
      if (!served(task, resp, std::string("serve-") + ks.name) ||
          !kill_classified(soak, ks, resp.report)) {
        return;
      }
      observed.insert(ks.expect_exit);
      soak.line() << "serve-" << ks.name
                  << " certified attempts=" << resp.report.attempts.size()
                  << "\n";
    } else if (shape == std::size(kKillShapes)) {
      // Overload burst: pin both dispatchers on watchdog-bounded spins, then
      // pour in more submissions than the queue bound can hold from
      // concurrent client threads while nothing drains. (A plain fresh job
      // is no pin: it can certify before the burst lands.) The overflow
      // MUST be refused as classified kShedQueueFull — never queued
      // unboundedly, never silently dropped — and every admitted job must
      // still certify.
      const ReductionTask pin_a = unique_chain_task(unique_id++);
      const ReductionTask pin_b = unique_chain_task(unique_id++);
      auto pa = service.submit(pin_a, wedge);
      auto pb = service.submit(pin_b, wedge);

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
      for (std::size_t j = 0; j < kBurst; ++j) {
        const serve::ServiceResponse& resp = burst[j]->wait();
        if (resp.admission == serve::Admission::kAccepted) {
          if (!served(burst_tasks[j], resp, "serve-overload burst")) return;
        } else if (resp.admission == serve::Admission::kShedQueueFull) {
          ++shed_here;
          // A shed is only acceptable CLASSIFIED: the transient
          // kOverloaded diagnostic a client backoff loop can act on.
          if (resp.report.final_report.diagnostic !=
                  Diagnostic::kOverloaded ||
              classify_diagnostic(resp.report.final_report.diagnostic) !=
                  FailureKind::kTransient ||
              resp.report.certified) {
            soak.fail("UNCLASSIFIED SHED", resp.report.to_string());
            return;
          }
        } else {
          soak.fail("UNEXPECTED ADMISSION CLASS",
                    serve::admission_name(resp.admission));
          return;
        }
      }
      if (!served(pin_a, pa->wait(), "serve-overload pin") ||
          !served(pin_b, pb->wait(), "serve-overload pin")) {
        return;
      }
      if (shed_here == 0) {
        soak.fail("OVERLOAD NEVER SHED",
                  "burst exceeded queue_depth with both dispatchers pinned, "
                  "yet no submission was refused");
        return;
      }
      soak.line() << "serve-overload shed=" << shed_here << "/" << kBurst
                  << "\n";
    } else {
      // Deadline expiry: wedge both dispatchers, then queue a job whose
      // deadline is already hopeless. FIFO order guarantees the wedges are
      // picked up first, so by the time a dispatcher frees up (>= 200ms
      // later) the 1ms deadline has long passed: the job must be shed as
      // kShedDeadline without ever touching a worker.
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
        soak.fail("DEADLINE NOT SHED",
                  std::string("admission=") +
                      serve::admission_name(lr.admission) + "\n" +
                      lr.report.to_string());
        return;
      }
      if (!served(wedge_a, wa->wait(), "serve-deadline wedge") ||
          !served(wedge_b, wb->wait(), "serve-deadline wedge")) {
        return;
      }
      observed.insert(serve::WorkerExit::kWatchdog);
      soak.line() << "serve-deadline shed ok\n";
    }
  });

  // Coverage through the service path, with the kill-only soak's two
  // exclusions.
  cover_worker_exits(soak, observed);
  expect_full_pool(soak, service, 2);
  const serve::ReductionService::Stats sstats = service.stats();
  soak.expect(sstats.served_from_cache > 0, "CACHE NEVER HIT",
              "repeated tasks were re-factored every time", 2);

  const serve::WarmPool::Stats ps = service.pool().stats();
  return {{"attempts", attempts},
          {"submitted", sstats.submitted},
          {"accepted", sstats.accepted},
          {"shed-queue-full", sstats.shed_queue_full},
          {"shed-deadline", sstats.shed_deadline},
          {"cache-hits", sstats.served_from_cache},
          {"workers-spawned", ps.spawned},
          {"workers-crashed", ps.crashed},
          {"recycles", ps.recycles},
          {"watchdog-kills", ps.watchdog_kills}};
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
  return serve::frame_bytes(serve::FrameType::kRequest,
                            serve::encode_request(req));
}

// Polls `cond` every millisecond until it holds or `timeout` passes.
bool wait_until(const std::function<bool()>& cond,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

Counts run_net(Soak& soak) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();
  serve::ReductionService service({.dispatchers = 2,
                                   .queue_depth = 8,
                                   .cache_capacity = 64,
                                   .pool = {.workers = 2},
                                   .supervisor = supervisor_policy()});

  serve::FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_soak_net_" + std::to_string(::getpid()) + ".sock";
  fo.max_connections = 4;  // small on purpose: overload shapes must shed
  // Short enough that a stalled-reader campaign settles fast, long enough
  // that a dribbled frame (~1ms per 64 bytes) still completes in time.
  fo.read_deadline = std::chrono::milliseconds{400};
  fo.write_deadline = std::chrono::milliseconds{2000};
  serve::Frontend frontend(service, fo);
  if (!frontend.running()) soak.fail("FRONTEND NEVER BOUND", fo.unix_path);

  std::uint64_t attempts = 0, unique_id = 0;

  auto describe = [](const serve::ClientResult& res) {
    return std::string("status=") + serve::frontend_status_name(res.status) +
           " diagnostic=" + diagnostic_name(res.diagnostic) +
           " attempts=" + std::to_string(res.attempts);
  };
  // One submission's result, held to the zero-wrong-answer contract.
  auto answered = [&](const serve::ClientResult& res,
                      const ReductionTask& task, const std::string& context) {
    attempts += res.attempts;
    return soak.answer(task, res.ok && res.response.certified,
                       res.response.value, context, describe(res));
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

  soak.run([&](std::size_t campaign, Stream& rng) {
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
      const std::string name =
          std::string("net-") + serve::net_fault_name(co.fault.fault);
      serve::Client client(co);
      const serve::ClientResult res = client.submit(task);
      if (!answered(res, task, name)) return;
      soak.line() << name << " certified attempts=" << res.attempts << "\n";
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
        soak.fail("PIN SETUP FAILED",
                  std::to_string(pins.size()) + " of " +
                      std::to_string(fo.max_connections) +
                      " pins connected");
        return;
      }
      serve::ClientOptions co = client_options(rng);
      co.retry.max_attempts = 2;  // both land on a full house
      const ReductionTask task = repeat_tasks[rng.pick(repeat_tasks.size())];
      serve::Client refused_client(co);
      const serve::ClientResult refused = refused_client.submit(task);
      const std::uint64_t closes_before = frontend.stats().clean_closes;
      for (int fd : pins) ::close(fd);
      if (refused.ok ||
          refused.status != serve::FrontendStatus::kOverloaded ||
          refused.diagnostic != Diagnostic::kOverloaded ||
          classify_diagnostic(refused.diagnostic) !=
              FailureKind::kTransient) {
        soak.fail("OVERLOAD NOT CLASSIFIED", describe(refused));
        return;
      }
      attempts += refused.attempts;
      // The shed is transient and the pins are gone: the same task must
      // now go straight through.
      if (!wait_until([&] {
            return frontend.stats().clean_closes > closes_before;
          })) {
        soak.fail("PINS NEVER RELEASED",
                  "clean_closes never advanced after closing the pinned "
                  "connections");
        return;
      }
      serve::Client retry_client(client_options(rng));
      const serve::ClientResult res = retry_client.submit(task);
      if (!answered(res, task, "net-overload retry")) return;
      soak.line() << "net-overload shed then served\n";
    } else {
      // Clean round-trip, twice: the first certifies fresh (or refreshes
      // the cache), the immediate repeat MUST be served from the verified
      // result cache — through the socket.
      const ReductionTask task = repeat_tasks[rng.pick(repeat_tasks.size())];
      serve::Client client(client_options(rng));
      const serve::ClientResult first = client.submit(task);
      const serve::ClientResult second = client.submit(task);
      if (!answered(first, task, "net-clean") ||
          !answered(second, task, "net-clean repeat")) {
        return;
      }
      if (!second.response.from_cache) {
        soak.fail("CACHE MISSED THROUGH THE SOCKET",
                  "immediate repeat of an identical task re-factored");
        return;
      }
      soak.line() << "net-clean cached repeat ok\n";
    }
  });

  // Graceful drain: complete a request AFTER begin_drain and require the
  // classified kDraining refusal — the last FrontendStatus the campaign
  // shapes cannot produce — then require the loop to actually exit.
  if (soak.ok()) {
    const int fd = raw_connect(fo.unix_path);
    if (fd < 0) {
      soak.fail("DRAIN CONN FAILED", "connect refused before drain");
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
      const bool refused = ws == serve::WireStatus::kOk &&
                           type == serve::FrameType::kResponse &&
                           serve::decode_response(payload, resp) &&
                           resp.status == serve::FrontendStatus::kDraining;
      ::close(fd);
      soak.expect(refused, "DRAIN REFUSAL NOT CLASSIFIED",
                  std::string("wire=") + serve::wire_status_name(ws) +
                      " status=" + serve::frontend_status_name(resp.status));
      if (soak.ok()) {
        soak.expect(wait_until([&] { return frontend.drained(); }),
                    "DRAIN NEVER FINISHED",
                    "event loop still live 5s after begin_drain");
      }
    }
  }

  // Every conversation of a full-length soak ended classified, and in EVERY
  // FrontendStatus class — accepted, malformed, deadline, conn-reset,
  // overloaded, draining.
  const serve::Frontend::Stats fs = frontend.stats();
  soak.cover("FrontendStatus", serve::all_frontend_statuses(),
             serve::frontend_status_name,
             [&](serve::FrontendStatus s) { return fs.status(s) > 0; });
  // The chaos stayed in the transport.
  expect_full_pool(soak, service, 2);

  Counts counts = {{"attempts", attempts}, {"conns", fs.conns_accepted}};
  for (serve::FrontendStatus s : serve::all_frontend_statuses()) {
    counts.emplace_back(serve::frontend_status_name(s), fs.status(s));
  }
  counts.emplace_back("clean-closes", fs.clean_closes);
  return counts;
}

// --- shard mode: chaos against the sharded self-healing router --------------

// The kernel's verdict on a pid: the single state letter from
// /proc/<pid>/stat ('R' running, 'T' stopped, 'Z' zombie, ...), or '?' if
// the pid is gone. The wedge campaign needs this to prove its SIGSTOP froze
// a live process rather than landing harmlessly on an unreaped corpse.
char proc_state(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return '?';
  // Field 3 follows the parenthesized comm, which may itself contain
  // parens — scan from the LAST ')'.
  const std::size_t paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size()
             ? line[paren + 2]
             : '?';
}

Counts run_shard(Soak& soak) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();

  serve::RouterOptions ro;
  ro.shards = 3;
  ro.service = {.dispatchers = 1,
                .queue_depth = 8,
                .cache_capacity = 32,
                .pool = {.workers = 1},
                .supervisor = supervisor_policy()};
  ro.probe_interval = std::chrono::milliseconds{25};
  ro.probe_deadline = std::chrono::milliseconds{300};
  ro.restart.base_delay = std::chrono::milliseconds{5};
  ro.restart.max_delay = std::chrono::milliseconds{50};
  ro.restart.jitter_seed = soak.seed();
  serve::ShardRouter router(ro);

  // The unsharded baseline: the SAME service template in one process. Every
  // fresh certified answer the router hands out must replay its pivot trace
  // event for event, whatever chaos the campaign staged, because a failover
  // re-runs the whole deterministic reduction rather than resuming a
  // half-trusted one. Memoized per content-address key so the baseline is
  // computed fresh (with a full trace) exactly once per distinct task.
  serve::ReductionService baseline(ro.service);
  std::map<std::string, factor::PivotTrace> baseline_traces;
  std::uint64_t unique_id = 0;

  // One answered (routed or failed-over) result against ground truth and
  // the unsharded baseline's trace.
  auto check_answer = [&](const ReductionTask& task,
                          const serve::RouteResult& r) {
    if (!soak.answer(task, r.response.certified, r.response.value,
                     "through the router " + task.describe(),
                     std::string("status=") +
                         serve::router_status_name(r.status) +
                         " shard=" + std::to_string(r.shard))) {
      return false;
    }
    const std::string key =
        serve::ResultCache::key_for(task, Substrate::kDouble);
    auto it = baseline_traces.find(key);
    if (it == baseline_traces.end()) {
      const serve::ServiceResponse base = baseline.run(task);
      if (!base.report.certified) {
        return soak.fail("UNSHARDED BASELINE NOT CERTIFIED",
                         base.report.to_string());
      }
      if (!soak.truth(task, base.report.value, "unsharded baseline",
                      base.report.to_string())) {
        return false;
      }
      it = baseline_traces.emplace(key, base.report.final_report.trace).first;
    }
    // Cache hits legitimately travel without a trace; every fresh answer
    // must replay the baseline's pivot decisions event for event.
    if (!r.response.from_cache && r.response.report.trace != it->second) {
      return soak.fail(
          "SHARDED TRACE DIVERGED FROM UNSHARDED BASELINE",
          task.describe() + " baseline=" + std::to_string(it->second.size()) +
              " events, sharded=" +
              std::to_string(r.response.report.trace.size()) + " events");
    }
    return true;
  };

  // Submits `task` until an answer arrives, however long the chaos takes.
  // Every non-answer along the way must be a CLASSIFIED transient refusal —
  // the availability half of the contract: a request is never lost, only
  // answered or refused with a diagnostic a backoff loop can act on.
  auto answer_through_chaos = [&](const ReductionTask& task) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const serve::RouteResult r = router.submit(task);
      switch (r.status) {
        case serve::RouterStatus::kRouted:
        case serve::RouterStatus::kFailedOver:
          return check_answer(task, r);
        case serve::RouterStatus::kBrownoutShed:
          if (r.response.report.diagnostic != Diagnostic::kOverloaded ||
              r.response.certified) {
            return soak.fail("BROWNOUT SHED NOT CLASSIFIED",
                             diagnostic_name(r.response.report.diagnostic));
          }
          break;
        case serve::RouterStatus::kAllShardsDown:
          if (classify_diagnostic(r.response.report.diagnostic) !=
                  FailureKind::kTransient ||
              r.response.certified) {
            return soak.fail("FULL-OUTAGE REFUSAL NOT TRANSIENT",
                             diagnostic_name(r.response.report.diagnostic));
          }
          break;
        case serve::RouterStatus::kCount_:
          return soak.fail("UNCLASSIFIED ENDING", "the sentinel");
      }
      // A refusal is the router telling us to back off; oblige briefly so
      // the supervision loop gets cycles to heal the fleet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return soak.fail("NEVER ANSWERED", task.describe());
  };

  if (!router.wait_all_serving(std::chrono::seconds(30))) {
    soak.fail("FLEET NEVER CAME UP", "initial wait_all_serving timed out");
  }

  soak.run([&](std::size_t campaign, Stream& rng) {
    // The self-healing contract, asserted between EVERY pair of campaigns:
    // whatever the previous campaign destroyed, the fleet is back at full
    // serving strength before the next one starts.
    if (!router.wait_all_serving(std::chrono::seconds(30))) {
      soak.fail("FLEET NEVER HEALED",
                "wait_all_serving timed out between campaigns");
      return;
    }
    const std::size_t shape = campaign % 6;

    if (shape == 0) {
      // Clean cached round-trip: a healthy fleet routes a repeat task to
      // its home shard twice; both answers certify.
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(task) || !answer_through_chaos(task)) return;
      soak.line() << "shard-clean " << task.describe() << " ok\n";
    } else if (shape == 1 || shape == 2) {
      // Kill the HOME shard mid-stream — SIGKILL on odd shapes, a genuine
      // SIGSEGV on even — and require the key to keep answering throughout
      // the outage (failover) and after the heal.
      const int sig = (shape == 1) ? SIGKILL : SIGSEGV;
      const ReductionTask& task = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(task)) return;  // warm the key
      router.kill_shard_for_testing(router.home_shard(task), sig);
      if (!answer_through_chaos(task)) return;
      soak.line() << "shard-kill-" << (sig == SIGKILL ? "sigkill" : "sigsegv")
                  << " " << task.describe() << " survived\n";
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
      if (!answer_through_chaos(task)) return;  // warm the key
      const serve::ShardRouter::Stats before = router.stats();
      const bool wedged = wait_until(
          [&] {
            const pid_t pid = router.shard_pid(victim);
            return pid > 0 && router.kill_shard_for_testing(victim, SIGSTOP) &&
                   router.shard_pid(victim) == pid && proc_state(pid) == 'T';
          },
          std::chrono::seconds(15));
      if (!wedged) {
        soak.fail("WEDGE NEVER LANDED",
                  "no live shard process entered /proc state T under SIGSTOP");
        return;
      }
      if (!answer_through_chaos(task)) return;  // serve through it
      if (!wait_until(
              [&] { return router.stats().evictions != before.evictions; },
              std::chrono::seconds(15))) {
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
        soak.fail("WEDGE NEVER EVICTED", detail);
        return;
      }
      soak.line() << "shard-wedge victim=" << victim << " evicted\n";
    } else if (shape == 4) {
      // Brownout entry/exit: with one shard down the router must shed a
      // never-seen key as classified kOverloaded while a warm key keeps
      // answering; once the fleet heals, the same fresh key is admitted.
      const ReductionTask& warm = repeat_tasks[rng.pick(repeat_tasks.size())];
      if (!answer_through_chaos(warm)) return;
      router.kill_shard_for_testing(rng.pick(ro.shards), SIGKILL);
      if (!wait_until([&] { return router.browned_out(); },
                      std::chrono::seconds(15))) {
        soak.fail("BROWNOUT NEVER ENTERED",
                  "shard killed but browned_out() stayed false");
        return;
      }
      const ReductionTask fresh = unique_chain_task(unique_id++);
      const serve::RouteResult shed = router.submit(fresh);
      const bool was_shed = shed.status == serve::RouterStatus::kBrownoutShed;
      // A heal racing the submit is legal: the shed is best-effort here.
      if (was_shed &&
          (shed.response.report.diagnostic != Diagnostic::kOverloaded ||
           classify_diagnostic(shed.response.report.diagnostic) !=
               FailureKind::kTransient)) {
        soak.fail("BROWNOUT SHED NOT CLASSIFIED",
                  diagnostic_name(shed.response.report.diagnostic));
        return;
      }
      if (!answer_through_chaos(warm)) return;  // warm keys survive
      if (!router.wait_all_serving(std::chrono::seconds(30))) {
        soak.fail("BROWNOUT NEVER EXITED",
                  "fleet did not heal after the brownout campaign");
        return;
      }
      if (!answer_through_chaos(fresh)) return;  // admitted again
      soak.line() << "shard-brownout "
                  << (was_shed ? "shed-then-admitted" : "healed-before-shed")
                  << "\n";
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
      if (!answer_through_chaos(task)) return;
      if (!router.wait_all_serving(std::chrono::seconds(30))) {
        soak.fail("RESTART STORM NEVER HEALED",
                  "fleet did not return to serving after a full kill");
        return;
      }
      if (router.stats().restarts < restarts_before + ro.shards) {
        soak.fail("RESTARTS NOT ACCOUNTED",
                  "fewer respawns than shards killed");
        return;
      }
      soak.line() << "shard-fleet-kill survived\n";
    }
  });

  const serve::ShardRouter::Stats rs = router.stats();
  // Every submit classified as exactly one RouterStatus: the ledger sums.
  std::uint64_t classified = 0;
  for (serve::RouterStatus s : serve::all_router_statuses()) {
    classified += rs.status(s);
  }
  soak.expect(classified == rs.submits, "LEDGER GAP",
              std::to_string(rs.submits) + " submits but " +
                  std::to_string(classified) + " classified endings");
  // Full taxonomy coverage, both enums.
  soak.cover("ShardStatus", serve::all_shard_statuses(),
             serve::shard_status_name, [&](serve::ShardStatus s) {
               return rs.shard_status_seen[static_cast<std::size_t>(s)] > 0;
             });
  soak.cover("RouterStatus", serve::all_router_statuses(),
             serve::router_status_name,
             [&](serve::RouterStatus s) { return rs.status(s) > 0; });
  // Cache locality: consistent hashing must keep most answers on their home
  // shard even while campaigns keep killing it. The floor is deliberately
  // loose (a quarter) — failover storms legitimately move traffic — but a
  // broken ring (everything failing over) lands near 0.
  soak.expect(rs.answered_by_home * 4 >= rs.answered, "LOCALITY GAP",
              "only " + std::to_string(rs.answered_by_home) + " of " +
                  std::to_string(rs.answered) +
                  " answers came from the home shard",
              1);

  return {{"submits", rs.submits},
          {"routed", rs.status(serve::RouterStatus::kRouted)},
          {"failed-over", rs.status(serve::RouterStatus::kFailedOver)},
          {"brownout-shed", rs.status(serve::RouterStatus::kBrownoutShed)},
          {"all-shards-down", rs.status(serve::RouterStatus::kAllShardsDown)},
          {"failover-hops", rs.failover_hops},
          {"restarts", rs.restarts},
          {"evictions", rs.evictions},
          {"probes", rs.probes},
          {"probe-failures", rs.probe_failures},
          {"answered", rs.answered},
          {"answered-by-home", rs.answered_by_home}};
}

constexpr Mode kModes[] = {
    {"", "", std::size(kInProcessShapes), run_in_process},
    {"--kill-only", "kill-only", std::size(kKillShapes), run_kill_only},
    {"--serve", "serve", 7, run_serve},
    {"--net", "net", 7, run_net},
    {"--shard", "shard", 6, run_shard},
};

int usage() {
  std::fprintf(stderr,
               "usage: pfact_soak [--campaigns N] [--seed S] [--log FILE] "
               "[--fail-dir DIR] [--kill-only | --serve | --net | --shard] "
               "[--inject-violation N]\n");
  return 2;
}

// A whole number in decimal, and nothing else.
template <class T>
bool parse_whole(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && p == end && p != s;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = (i + 1 < argc) ? argv[i + 1] : nullptr;
    const Mode* mode = nullptr;
    for (const Mode& m : kModes) {
      if (*m.flag != '\0' && arg == m.flag) mode = &m;
    }
    if (mode != nullptr) {
      if (opt.mode != nullptr) return usage();  // one mode per soak
      opt.mode = mode;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--campaigns") {
      if (!parse_whole(value, opt.campaigns) || opt.campaigns == 0) {
        return usage();
      }
    } else if (arg == "--seed") {
      if (!parse_whole(value, opt.seed)) return usage();
    } else if (arg == "--log") {
      opt.log_path = value;
    } else if (arg == "--fail-dir") {
      opt.fail_dir = value;
    } else if (arg == "--inject-violation") {
      if (!parse_whole(value, opt.inject_violation)) return usage();
    } else {
      return usage();
    }
  }
  if (opt.mode == nullptr) opt.mode = &kModes[0];

  std::ofstream log(opt.log_path, std::ios::trunc);
  if (!log) {
    std::fprintf(stderr, "cannot open log file %s\n", opt.log_path.c_str());
    return 2;
  }
  log << "pfact_soak seed=" << opt.seed << " campaigns=" << opt.campaigns
      << (*opt.mode->word ? " " : "") << opt.mode->word << "\n";

  Soak soak(opt, log);
  const Counts counts = opt.mode->run(soak);
  return soak.finish(counts);
}
