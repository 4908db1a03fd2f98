#pragma once
// Seeded request streams for the two served workloads.
//
// Request i of a stream is a pure function of (seed, i): client threads
// draw indices from a shared counter and generate the request themselves,
// so a run can consume as many requests as its time allows while the first
// kDigestRequests (printed as the stream digest) stay fixed per seed. The
// family of request i depends on i alone, so every seed yields the same mix
// with different instances.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "robustness/escalation.h"

namespace pfbench {

struct Request {
  pfact::robustness::ReductionTask task;
  bool expected = false;
  const char* family = "";
  bool novel = false;  // repeat stream: a key outside the popular set
};

inline constexpr std::uint64_t kDigestRequests = 1024;

// reduce-fresh: every key distinct. Per 20 consecutive requests: 7 GEM and
// 4 GEMS over seeded random circuits (4 inputs, 6-16 gates, sparse), 3 GEM
// and 2 GEMS over parity/adder/comparator circuits (sparse), 2 GEM and 1
// GEMS over random circuits of at most 4 gates (dense), and 1 GEP or GQR
// chain of depth 4-16 (alternating; GEP with both inputs 2 stops at depth
// 12, beyond which it cannot be certified). The finite families (structured
// circuits x inputs, chains) are walked in a seeded order and repeat only
// after about 1800 requests.
class FreshStream {
 public:
  explicit FreshStream(std::uint64_t seed);
  Request at(std::uint64_t i) const;

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> structured_order_;  // into structured_pool()
  std::vector<std::size_t> gep_order_;         // into the (a, b, depth) shapes
  std::vector<std::size_t> gqr_order_;
};

// reduce-repeat: 19 of every 20 requests draw one of 512 popular instances
// (xor, majority3, parity-3..5, adder-carry-2 under every input, then
// 6-gate random circuits) with Zipf(1.1) popularity over a seeded rank
// order; the 20th is a first-seen 6-gate random circuit. GEM and GEMS
// alternate by instance; all run on the sparse backend.
class RepeatStream {
 public:
  static constexpr std::size_t kPopular = 512;
  explicit RepeatStream(std::uint64_t seed);
  Request at(std::uint64_t i) const;
  const Request& popular(std::size_t k) const { return popular_[k]; }

 private:
  std::uint64_t seed_;
  std::vector<Request> popular_;   // by rank
  std::vector<double> cdf_;        // Zipf(1.1) over ranks
};

// Digest of the first kDigestRequests requests (cache key + expected bit)
// and their family histogram.
template <class Stream>
std::string stream_digest(const Stream& s, std::map<std::string, int>* mix);

}  // namespace pfbench
