#pragma once
// Admission-controlled job queue + the ReductionService that fronts the
// warm pool — the serving layer's graceful-degradation boundary.
//
// The service accepts ReductionTasks from many client threads, holds them
// in a BOUNDED queue, and dispatches them onto the warm worker pool through
// the supervised retry/escalation loop, consulting the verified result
// cache first. Overload is a first-class, classified outcome, never an
// unbounded buffer:
//
//   * bounded depth: a submit that would exceed `queue_depth` is refused
//     immediately with Admission::kShedQueueFull, which maps to the
//     Diagnostic::kOverloaded retry class — transient, so a client's own
//     backoff loop is the correct response;
//   * per-job deadlines: a job whose deadline has passed by the time a
//     dispatcher picks it up is shed as kShedDeadline (kDeadlineExceeded)
//     instead of burning a worker on an answer nobody is waiting for;
//   * graceful shutdown: destruction stops admission, resolves every
//     still-queued job as kShedShutdown (kCancelled), lets in-flight jobs
//     finish, and joins the dispatchers — every waiter always gets a
//     classified response.
//
// Every admission outcome is a row below, named and mapped into the
// robustness taxonomy (a static_assert keeps the table total), and
// backpressure is observable: serve-jobs-submitted / serve-jobs-shed
// counters plus the queue-depth histogram recorded at every admission.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/taxonomy.h"
#include "parallel/annotations.h"
#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "serve/result_cache.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"

namespace pfact::serve {

// Every way an offered job can be admitted or refused. Total: a submission
// lands in exactly one class.
enum class Admission {
  kAccepted,       // queued within bounds; a report will follow
  kShedQueueFull,  // bounded depth reached: load shed at the front door
  kShedDeadline,   // the job's deadline expired before dispatch
  kShedShutdown,   // the service is draining or stopped
  kCount_,         // sentinel: number of admission outcomes
};

// Each outcome's name and diagnostic. Every shed class is TRANSIENT under
// classify_diagnostic — the work was refused, never refuted, so
// resubmitting later is always sound.
inline constexpr auto kAdmissionRows = [] {
  using enum robustness::Diagnostic;
  return obs::RowTable<robustness::DiagnosedRow<Admission>>{{
      {Admission::kAccepted, "accepted", kOk},
      {Admission::kShedQueueFull, "shed-queue-full", kOverloaded},
      {Admission::kShedDeadline, "shed-deadline", kDeadlineExceeded},
      {Admission::kShedShutdown, "shed-shutdown", kCancelled},
  }};
}();
static_assert(obs::is_row_table(kAdmissionRows));

inline const char* admission_name(Admission a) {
  return obs::name_of(kAdmissionRows, a);
}
inline robustness::Diagnostic diagnose_admission(Admission a) {
  return robustness::diagnosis_of(kAdmissionRows, a);
}
// The sweep the service tests and the --serve soak assert over.
inline const std::vector<Admission>& all_admissions() {
  return obs::sweep_of<kAdmissionRows>();
}

// Per-job knobs riding on top of the service-wide SupervisorOptions. The
// chaos fields exist for the soak harness: kills and sandboxes are per-job
// schedules there, not service policy.
struct JobOptions {
  std::chrono::milliseconds deadline{0};  // 0 = the service default
  std::chrono::milliseconds watchdog{0};  // 0 = the service default
  std::function<KillPlan(std::size_t attempt)> kill_for_attempt;
  WorkerLimits rlimits;
};

struct ServiceResponse {
  Admission admission = Admission::kAccepted;
  bool from_cache = false;
  // Meaningful when admission == kAccepted and the job was dispatched; for
  // a shed job it carries the classified diagnostic instead.
  SupervisedReport report;
};

struct ServiceOptions {
  std::size_t dispatchers = 2;    // threads draining the queue
  std::size_t queue_depth = 16;   // admission bound (jobs waiting, not running)
  std::size_t cache_capacity = 128;
  std::chrono::milliseconds default_deadline{0};  // 0 = none
  WarmPoolOptions pool;
  SupervisorOptions supervisor;   // retry/ladder/checkpoint policy per job
};

class ReductionService {
 public:
  // Shared state of one submitted job; wait() blocks until the dispatcher
  // (or admission control) resolves it.
  class Pending {
   public:
    const ServiceResponse& wait();

    // Non-blocking probe: nullptr until resolved, then the response. The
    // pointer stays valid for the Pending's lifetime.
    const ServiceResponse* poll_response();

    // Registers a callback fired exactly once when the job resolves —
    // immediately (on the calling thread) if it already has. The callback
    // runs outside the Pending's lock on whichever thread resolves the job;
    // it must be cheap and non-blocking (the socket frontend uses it to
    // write one byte into its poll() wakeup pipe). At most one callback.
    void notify_on_done(std::function<void()> fn);

   private:
    friend class ReductionService;
    par::Mutex mu_;
    std::condition_variable done_cv_;
    bool done_ PFACT_GUARDED_BY(mu_) = false;
    ServiceResponse response_ PFACT_GUARDED_BY(mu_);
    std::function<void()> notifier_ PFACT_GUARDED_BY(mu_);
  };

  explicit ReductionService(ServiceOptions options = {});
  ~ReductionService();

  ReductionService(const ReductionService&) = delete;
  ReductionService& operator=(const ReductionService&) = delete;

  // Offers a job. Never blocks on queue capacity: an over-bound submit is
  // resolved immediately as kShedQueueFull. Thread-safe.
  std::shared_ptr<Pending> submit(const robustness::ReductionTask& task,
                                  const JobOptions& job = {});

  // submit + wait, for clients that want the blocking call.
  ServiceResponse run(const robustness::ReductionTask& task,
                      const JobOptions& job = {});

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t shed_shutdown = 0;
    std::uint64_t served_from_cache = 0;
    std::uint64_t peak_queue_depth = 0;
  };
  Stats stats() const;

  const WarmPool& pool() const { return pool_; }
  ResultCache& cache() { return cache_; }

 private:
  struct Job {
    robustness::ReductionTask task;
    JobOptions options;
    // time_point{} = no deadline.
    std::chrono::steady_clock::time_point deadline{};
    std::shared_ptr<Pending> pending;
  };

  static void resolve(Pending& pending, ServiceResponse response);
  static ServiceResponse shed_response(Admission admission,
                                       const char* detail);
  void dispatch_loop();
  ServiceResponse execute(const Job& job);

  ServiceOptions options_;
  WarmPool pool_;
  ResultCache cache_;
  mutable par::Mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_ PFACT_GUARDED_BY(mu_);
  bool stopping_ PFACT_GUARDED_BY(mu_) = false;
  Stats stats_ PFACT_GUARDED_BY(mu_);
  std::vector<std::thread> dispatchers_;
};

}  // namespace pfact::serve
