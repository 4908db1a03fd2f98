#pragma once
// ResultCache: content-addressed, verified answers for the serving layer.
//
// Repeated and overlapping traffic is the north-star workload (ROADMAP item
// 2), and a reduction is pure: the same circuit bytes + algorithm +
// substrate always decode to the same boolean. The cache exploits exactly
// that purity — its key is the canonical circuit text plus the task shape
// and substrate, so two requests collide only when they would provably
// compute the same answer.
//
// Trust rules (DESIGN.md section 12), because a cache is a second way to be
// wrong at scale:
//
//   * fill only with VERIFIED answers: the service inserts an entry only
//     after supervised_run certified it (worker cross-check + supervisor
//     re-check against the direct evaluation);
//   * validate on read: every stored entry carries its own CRC32, and the
//     final checkpoint blob riding with it must still pass the PFCK
//     envelope check — a flipped bit yields a classified kCorruptEntry /
//     kEnvelopeRejected probe (and the entry is dropped), never a served
//     answer;
//   * bounded: capacity-limited with least-recently-used eviction, so the
//     cache degrades to recomputation, not to unbounded memory.
//
// Every probe outcome is a row of kCacheProbeRows, named and mapped into
// the robustness Diagnostic taxonomy below (a static_assert keeps the table
// total).

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/taxonomy.h"
#include "parallel/annotations.h"
#include "robustness/diagnostics.h"
#include "robustness/escalation.h"
#include "robustness/fields.h"

namespace pfact::serve {

// Every way a cache read can end. Total: a lookup lands in exactly one
// class.
enum class CacheProbe {
  kHit,               // entry present, CRC and envelope verified
  kMiss,              // no entry under this key
  kCorruptEntry,      // stored bytes no longer hash to the entry CRC
  kEnvelopeRejected,  // entry CRC fine but its PFCK blob fails the envelope
  kCount_,            // sentinel: number of probe outcomes
};

// Each outcome's name and diagnostic. Hits and misses are not failures
// (kOk: the service either serves or recomputes); both corruption classes
// are kCheckpointCorrupt — transient, because dropping the entry and
// re-factoring always recovers.
inline constexpr auto kCacheProbeRows = [] {
  using enum robustness::Diagnostic;
  return obs::RowTable<robustness::DiagnosedRow<CacheProbe>>{{
      {CacheProbe::kHit, "hit", kOk},
      {CacheProbe::kMiss, "miss", kOk},
      {CacheProbe::kCorruptEntry, "corrupt-entry", kCheckpointCorrupt},
      {CacheProbe::kEnvelopeRejected, "envelope-rejected", kCheckpointCorrupt},
  }};
}();
static_assert(obs::is_row_table(kCacheProbeRows));

inline const char* cache_probe_name(CacheProbe p) {
  return obs::name_of(kCacheProbeRows, p);
}
inline robustness::Diagnostic diagnose_cache_probe(CacheProbe p) {
  return robustness::diagnosis_of(kCacheProbeRows, p);
}
// The sweep the cache test suite asserts coverage over.
inline const std::vector<CacheProbe>& all_cache_probes() {
  return obs::sweep_of<kCacheProbeRows>();
}

// What a hit returns: the certified boolean, the substrate that certified
// it, and the run's final checkpoint blob (empty when checkpointing was
// off) so a future resume-style consumer can pick up the terminal state.
struct CacheEntry {
  bool value = false;
  robustness::Substrate substrate = robustness::Substrate::kDouble;
  std::string final_checkpoint;
};

// The bytes a resident entry is stored as, under its CRC.
template <class Io, robustness::detail::Of<CacheEntry> R>
void fields(Io& io, R& e) {
  io.u8(e.value);
  io.u32(e.substrate);
  io.str(e.final_checkpoint);
}

class ResultCache {
 public:
  // capacity = maximum resident entries; 0 disables the cache entirely
  // (every lookup misses, every insert is dropped).
  explicit ResultCache(std::size_t capacity = 128);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // The content address: algorithm + task shape (u, w, depth) + canonical
  // circuit text + substrate. Everything that determines the answer, and
  // nothing that does not.
  static std::string key_for(const robustness::ReductionTask& task,
                             robustness::Substrate substrate);

  // Probes the cache. On kHit, `out` holds the verified entry and the key
  // is freshened in LRU order. On either corruption class the entry is
  // dropped before returning — a poisoned entry is never probed twice.
  CacheProbe lookup(const std::string& key, CacheEntry& out);

  // Files a VERIFIED entry under `key`, evicting the least recently used
  // entry if at capacity. Callers must only pass certified answers; the
  // cache cannot re-derive truth, only preserve it.
  void insert(const std::string& key, const CacheEntry& entry);

  std::size_t size() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t corrupt = 0;  // both corruption classes
  };
  Stats stats() const;

  // Test seam: flips one byte inside the stored (CRC-protected) bytes of
  // `key`, returning false if the key is absent. The next lookup must
  // classify the damage, not serve it.
  bool corrupt_entry_for_testing(const std::string& key);

 private:
  struct Stored {
    std::string bytes;       // serialized CacheEntry
    std::uint32_t crc = 0;   // crc32 of `bytes` at fill time
    std::list<std::string>::iterator lru;  // position in lru_ (front = MRU)
  };

  void drop(const std::string& key) PFACT_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable par::Mutex mu_;
  std::unordered_map<std::string, Stored> entries_ PFACT_GUARDED_BY(mu_);
  std::list<std::string> lru_ PFACT_GUARDED_BY(mu_);
  Stats stats_ PFACT_GUARDED_BY(mu_);
};

}  // namespace pfact::serve
