// staticcheck fixture: the audited deadline wrappers, pinning PL014's
// waiver mechanics (read_exact/write_frame are allowlisted and must keep
// containing raw syscalls). Not compiled — parsed only.
#include "serve/queue.h"

namespace pfact::serve {

bool read_exact(int fd, char* buf, std::size_t n, int deadline_ms) {
  while (n > 0) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, deadline_ms) <= 0) return false;
    const ssize_t got = ::read(fd, buf, n);
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_frame(int fd, const std::string& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t put = ::write(fd, frame.data() + off, frame.size() - off);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace pfact::serve
