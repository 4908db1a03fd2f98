#include "serve/shard.h"

#include <errno.h>
#include <signal.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <memory>

#include "serve/frontend.h"
#include "serve/warm_pool.h"
#include "serve/wire.h"

namespace pfact::serve {

namespace {

// The shard child's whole life: build the private service stack, then park
// until SIGTERM. The signal is consumed with sigwait — not a handler — so
// shutdown needs no async-signal-safe gymnastics: the main thread simply
// returns into the destructors, which drain the frontend and retire the
// warm workers before _exit.
[[noreturn]] void shard_child_main(const ShardSpec& spec, pid_t router) {
  // The fork rule: the shard needs nothing from the router process but
  // stdio. It builds its own sockets, pipes, and workers from scratch.
  close_inherited_fds({});
  // Block SIGTERM before the service threads start so every thread inherits
  // the mask and only the sigwait below can consume it.
  sigset_t term;
  sigemptyset(&term);
  sigaddset(&term, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &term, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
  // Die with the router: a router killed without its destructor still
  // SIGTERMs its shards, which drain as on a graceful stop. The signal
  // fires when the FORKING THREAD exits, which is why the router forks
  // every shard from its supervisor thread. A router that died before
  // prctl took effect shows as a changed parent.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  if (::getppid() != router) _exit(0);

  {
    ReductionService service(spec.service);
    FrontendOptions fo;
    fo.unix_path = spec.unix_path;
    Frontend frontend(service, fo);
    if (!frontend.running()) _exit(1);
    int sig = 0;
    while (sigwait(&term, &sig) != 0 || sig != SIGTERM) {
    }
    frontend.begin_drain();
  }
  _exit(0);
}

}  // namespace

pid_t spawn_shard(const ShardSpec& spec) {
  const pid_t router = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) shard_child_main(spec, router);  // never returns
  return pid;
}

bool probe_shard(const std::string& unix_path,
                 std::chrono::milliseconds deadline) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (unix_path.empty() || unix_path.size() >= sizeof(addr.sun_path))
    return false;
  ::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  bool acked = false;
  if (write_frame(fd, FrameType::kProbe, {}) == WireStatus::kOk) {
    FrameType type = FrameType::kRequest;
    std::string payload;
    const WireStatus st = read_frame(
        fd, type, payload, std::chrono::steady_clock::now() + deadline);
    acked = st == WireStatus::kOk && type == FrameType::kProbe &&
            payload.empty();
  }
  ::close(fd);
  return acked;
}

}  // namespace pfact::serve
