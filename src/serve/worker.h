#pragma once
// The worker side of the process-isolation protocol.
//
// worker_loop_main runs inside a warm-pool child (warm_pool.h): it reads
// TaskRequest frames one at a time, applies each one's rlimit sandbox, runs
// the guarded reduction on the requested substrate — streaming every
// save-every-k checkpoint blob back over the response pipe as it is
// produced — and ships the RunReport as a result frame. All of pfact's
// actual failure handling lives OUTSIDE this process: a worker that dies
// (SIGSEGV, OOM under RLIMIT_AS, SIGXCPU, a supervisor watchdog SIGKILL)
// takes nothing with it but its own address space, and the checkpoints
// already on the wire let the supervisor respawn a successor that resumes
// where it stopped.
//
// Fork-safety: the guarded drivers are single-threaded by construction, so
// the child never touches ThreadPool::global() — a forked child inherits
// only the forking thread, and any wait on pool threads that do not exist
// would deadlock. This function must stay free of thread-pool use.

namespace pfact::serve {

// Protocol-failure exit codes, distinct from kKillPlanExitCode (wire.h) so
// the supervisor's nonzero-exit diagnostics name the real cause.
inline constexpr int kWorkerExitBadRequestFrame = 10;  // unreadable request
inline constexpr int kWorkerExitBadRequestBody = 11;   // undecodable payload
inline constexpr int kWorkerExitResultWriteFailed = 12;

// Loops over request frames on one pipe pair, one job per frame, each
// answered by checkpoint frames plus one result frame; returns the process
// exit code, which the forked child must pass straight to _exit(). A clean
// EOF on the request pipe — the pool retiring the slot — returns 0; a
// protocol failure returns one of the codes above. rlimit sandboxes apply
// per job, which is why the pool retires a slot after any rlimited job:
// RLIMIT_CPU is cumulative per process and a hard limit can never be
// raised back.
int worker_loop_main(int request_fd, int response_fd);

}  // namespace pfact::serve
