// Seeded violation for PL014's stale-waiver leg: read_exact was rewritten
// to copy out of an in-memory buffer — it no longer contains any raw
// blocking syscall, so its allowlist entry must be retired with it.
#include "serve/queue.h"

namespace pfact::serve {

bool read_exact(Buffer& in, char* dst, std::size_t n) {
  if (in.size() < n) return false;
  std::memcpy(dst, in.data(), n);
  in.consume(n);
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
