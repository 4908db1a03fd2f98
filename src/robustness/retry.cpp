#include "robustness/retry.h"

namespace pfact::robustness {

const char* failure_kind_name(FailureKind k) {
  switch (k) {
    case FailureKind::kSuccess: return "success";
    case FailureKind::kTransient: return "transient";
    case FailureKind::kDeterministic: return "deterministic";
    case FailureKind::kFatal: return "fatal";
  }
  return "?";
}

std::uint64_t mix64(std::uint64_t seed, std::uint64_t attempt) {
  std::uint64_t z = seed + attempt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::chrono::milliseconds RetryPolicy::backoff(std::size_t attempt) const {
  if (base_delay.count() <= 0 || attempt == 0) {
    return std::chrono::milliseconds{0};
  }
  // base * 2^(attempt-1), saturating at max_delay before jitter so the cap
  // is exact even when the shift would overflow.
  const std::uint64_t shift = attempt - 1;
  std::uint64_t raw = static_cast<std::uint64_t>(base_delay.count());
  const std::uint64_t cap = static_cast<std::uint64_t>(
      max_delay.count() > 0 ? max_delay.count() : base_delay.count());
  if (shift >= 63 || raw > (cap >> shift)) {
    raw = cap;
  } else {
    raw <<= shift;
    if (raw > cap) raw = cap;
  }
  // Jitter factor in [0.5, 1.0]: keep the top bit, randomize the rest.
  const std::uint64_t r = mix64(jitter_seed, attempt);
  const std::uint64_t jittered = raw / 2 + (r % (raw / 2 + 1));
  return std::chrono::milliseconds{static_cast<long long>(jittered)};
}

}  // namespace pfact::robustness
