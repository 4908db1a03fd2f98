#include "stream.h"

#include <algorithm>
#include <cmath>

#include "circuit/builders.h"
#include "common.h"
#include "serve/result_cache.h"

namespace pfbench {

using pfact::circuit::Circuit;
using pfact::circuit::CvpInstance;
using pfact::robustness::Algorithm;
using pfact::robustness::Backend;
using pfact::robustness::ReductionTask;

namespace {

std::vector<bool> bits(std::uint64_t mask, std::size_t n) {
  std::vector<bool> in(n);
  for (std::size_t i = 0; i < n; ++i) in[i] = (mask >> i) & 1;
  return in;
}

// Every input assignment of each circuit, in a fixed order.
std::vector<CvpInstance> exhaustive(const std::vector<Circuit>& circuits) {
  std::vector<CvpInstance> out;
  for (const Circuit& c : circuits) {
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << c.num_inputs()); ++m) {
      out.push_back({c, bits(m, c.num_inputs())});
    }
  }
  return out;
}

const std::vector<CvpInstance>& structured_pool() {
  namespace cb = pfact::circuit;
  static const std::vector<CvpInstance> pool = exhaustive(
      {cb::parity_circuit(3), cb::parity_circuit(4), cb::parity_circuit(5),
       cb::parity_circuit(6), cb::adder_carry_circuit(2),
       cb::adder_carry_circuit(3), cb::comparator_circuit(2),
       cb::comparator_circuit(3)});
  return pool;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[mix(seed, i) % i]);
  }
  return order;
}

Request circuit_request(Algorithm alg, Backend backend, CvpInstance inst,
                        const char* family) {
  Request r;
  r.task.algorithm = alg;
  r.task.backend = backend;
  r.expected = inst.expected();
  r.task.instance = std::move(inst);
  r.family = family;
  return r;
}

Request random_request(Algorithm alg, Backend backend, std::size_t gates,
                       std::uint64_t h, const char* family) {
  Circuit c = pfact::circuit::random_circuit(4, gates, h);
  return circuit_request(alg, backend, {c, bits(mix(h, 1), 4)}, family);
}

constexpr std::size_t kChainDepths = 13;  // depths 4..16
constexpr std::size_t kChainShapes = 4 * kChainDepths;

// The chain shapes (input pair, depth) of one algorithm, in a seeded order.
// A GEP chain with both inputs 2 decodes ambiguously from depth 13 on, on
// every substrate (several live rows at the value column), so no answer can
// be certified: those four shapes are left out, the other 48 stay.
std::vector<std::size_t> chain_order(bool gqr, std::uint64_t seed) {
  std::vector<std::size_t> shapes;
  for (std::size_t s = 0; s < kChainShapes; ++s) {
    const bool ambiguous = !gqr && (s & 3) == 3 && 4 + s / 4 > 12;
    if (!ambiguous) shapes.push_back(s);
  }
  std::vector<std::size_t> order;
  for (std::size_t k : seeded_order(shapes.size(), seed)) {
    order.push_back(shapes[k]);
  }
  return order;
}

}  // namespace

FreshStream::FreshStream(std::uint64_t seed)
    : seed_(seed),
      structured_order_(seeded_order(structured_pool().size(), mix(seed, 11))),
      gep_order_(chain_order(false, mix(seed, 12))),
      gqr_order_(chain_order(true, mix(seed, 14))) {}

Request FreshStream::at(std::uint64_t i) const {
  const std::uint64_t cycle = i / 20;
  const std::uint64_t slot = i % 20;
  const std::uint64_t h = mix(seed_, i, 0xF7E5);
  // Gate counts cycle with the index, not the seed, so every seed draws the
  // same size mix and only the circuits differ.
  if (slot < 7) {
    return random_request(Algorithm::kGem, Backend::kSparse,
                          6 + (cycle * 7 + slot) % 11, h, "gem-sparse-random");
  }
  if (slot < 11) {
    return random_request(Algorithm::kGems, Backend::kSparse,
                          6 + (cycle * 4 + slot - 7) % 11, h,
                          "gems-sparse-random");
  }
  if (slot < 16) {
    const bool gem = slot < 14;
    const std::uint64_t j = gem ? cycle * 3 + (slot - 11) : cycle * 2 + (slot - 14);
    const CvpInstance& inst =
        structured_pool()[structured_order_[j % structured_order_.size()]];
    return circuit_request(gem ? Algorithm::kGem : Algorithm::kGems,
                           Backend::kSparse, inst,
                           gem ? "gem-sparse-structured"
                               : "gems-sparse-structured");
  }
  if (slot < 19) {
    const bool gem = slot < 18;
    return random_request(gem ? Algorithm::kGem : Algorithm::kGems,
                          Backend::kDense, 3 + (cycle + slot) % 2, h,
                          gem ? "gem-dense-small" : "gems-dense-small");
  }
  // Chains alternate GEP / GQR; shape = (input pair, depth).
  const bool gqr = cycle % 2 == 1;
  const std::vector<std::size_t>& order = gqr ? gqr_order_ : gep_order_;
  const std::size_t shape = order[(cycle / 2) % order.size()];
  const int a = (shape & 1) != 0, b = (shape & 2) != 0;
  Request r;
  r.task.algorithm = gqr ? Algorithm::kGqr : Algorithm::kGep;
  r.task.backend = Backend::kSparse;
  r.task.depth = 4 + shape / 4;
  r.task.u = gqr ? (a ? 1 : -1) : (a ? 2 : 1);
  r.task.w = gqr ? (b ? 1 : -1) : (b ? 2 : 1);
  r.expected = r.task.expected();
  r.family = gqr ? "gqr-chain" : "gep-chain";
  return r;
}

RepeatStream::RepeatStream(std::uint64_t seed) : seed_(seed) {
  namespace cb = pfact::circuit;
  std::vector<CvpInstance> insts = exhaustive(
      {cb::xor_circuit(), cb::majority3_circuit(), cb::parity_circuit(3),
       cb::parity_circuit(4), cb::parity_circuit(5),
       cb::adder_carry_circuit(2)});
  for (std::uint64_t k = 0; insts.size() < kPopular; ++k) {
    const std::uint64_t h = mix(seed, k, 0x9090);
    insts.push_back({cb::random_circuit(4, 6, h), bits(mix(h, 1), 4)});
  }
  const std::vector<std::size_t> rank_order = seeded_order(kPopular, mix(seed, 13));
  for (std::size_t r = 0; r < kPopular; ++r) {
    const std::size_t k = rank_order[r];
    popular_.push_back(circuit_request(
        k % 2 == 0 ? Algorithm::kGem : Algorithm::kGems, Backend::kSparse,
        insts[k], "popular"));
  }
  double total = 0;
  for (std::size_t r = 0; r < kPopular; ++r) {
    total += std::pow(static_cast<double>(r + 1), -1.1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

Request RepeatStream::at(std::uint64_t i) const {
  const std::uint64_t h = mix(seed_, i, 0x2E9E);
  if (i % 20 == 19) {
    Request r = random_request(Algorithm::kGem, Backend::kSparse, 6, h, "novel");
    r.novel = true;
    return r;
  }
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const std::size_t rank = std::min<std::size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
      kPopular - 1);
  return popular_[rank];
}

template <class Stream>
std::string stream_digest(const Stream& s, std::map<std::string, int>* mix) {
  Digest d;
  for (std::uint64_t i = 0; i < kDigestRequests; ++i) {
    const Request r = s.at(i);
    d.add(pfact::serve::ResultCache::key_for(
        r.task, pfact::robustness::Substrate::kDouble));
    d.add(r.expected ? "1" : "0");
    if (mix != nullptr) ++(*mix)[r.family];
  }
  return d.hex();
}

template std::string stream_digest(const FreshStream&,
                                   std::map<std::string, int>*);
template std::string stream_digest(const RepeatStream&,
                                   std::map<std::string, int>*);

}  // namespace pfbench
