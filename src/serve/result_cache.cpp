#include "serve/result_cache.h"

#include <utility>

#include "obs/counters.h"
#include "robustness/checkpoint.h"
#include "serve/wire.h"

namespace pfact::serve {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::string ResultCache::key_for(const robustness::ReductionTask& task,
                                 robustness::Substrate substrate) {
  std::string key = robustness::algorithm_name(task.algorithm);
  key += '\n';
  key += robustness::substrate_name(substrate);
  key += '\n';
  // The backend is part of the identity even though answers are
  // backend-invariant: a cached entry carries the run's final checkpoint
  // blob, whose entry section is backend-specific (dense vs sparse-* field
  // tags), so a dense hit must never be replayed into a sparse resume.
  key += robustness::backend_name(task.backend);
  key += '\n';
  key += std::to_string(task.u) + ' ' + std::to_string(task.w) + ' ' +
         std::to_string(task.depth);
  key += '\n';
  // The canonical instance text the request frame carries IS the content
  // address.
  key += instance_text(task.instance);
  return key;
}

void ResultCache::drop(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

CacheProbe ResultCache::lookup(const std::string& key, CacheEntry& out) {
  par::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    PFACT_COUNT(kServeCacheMisses);
    return CacheProbe::kMiss;
  }
  Stored& stored = it->second;
  if (robustness::crc32(stored.bytes.data(), stored.bytes.size()) !=
      stored.crc) {
    drop(key);
    ++stats_.corrupt;
    PFACT_COUNT(kServeCacheCorrupt);
    return CacheProbe::kCorruptEntry;
  }
  CacheEntry entry;
  if (!robustness::detail::decode_fields(stored.bytes, entry)) {
    // Bytes hash but do not parse: same corruption family, same exit.
    drop(key);
    ++stats_.corrupt;
    PFACT_COUNT(kServeCacheCorrupt);
    return CacheProbe::kCorruptEntry;
  }
  if (!entry.final_checkpoint.empty() &&
      robustness::validate_checkpoint_envelope(entry.final_checkpoint) !=
          robustness::CheckpointStatus::kOk) {
    drop(key);
    ++stats_.corrupt;
    PFACT_COUNT(kServeCacheCorrupt);
    return CacheProbe::kEnvelopeRejected;
  }
  // Freshen: a hit entry moves to the MRU end of the eviction order.
  lru_.erase(stored.lru);
  lru_.push_front(key);
  stored.lru = lru_.begin();
  ++stats_.hits;
  PFACT_COUNT(kServeCacheHits);
  out = std::move(entry);
  return CacheProbe::kHit;
}

void ResultCache::insert(const std::string& key, const CacheEntry& entry) {
  if (capacity_ == 0) return;
  par::MutexLock lock(mu_);
  drop(key);  // replace, never duplicate
  while (entries_.size() >= capacity_) {
    drop(lru_.back());
    ++stats_.evictions;
    PFACT_COUNT(kServeCacheEvictions);
  }
  Stored stored;
  stored.bytes = robustness::detail::encode_fields(entry);
  stored.crc = robustness::crc32(stored.bytes.data(), stored.bytes.size());
  lru_.push_front(key);
  stored.lru = lru_.begin();
  entries_.emplace(key, std::move(stored));
  ++stats_.fills;
  PFACT_COUNT(kServeCacheFills);
}

std::size_t ResultCache::size() const {
  par::MutexLock lock(mu_);
  return entries_.size();
}

ResultCache::Stats ResultCache::stats() const {
  par::MutexLock lock(mu_);
  return stats_;
}

bool ResultCache::corrupt_entry_for_testing(const std::string& key) {
  par::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  // Flip a byte in the middle of the protected bytes — the CRC recorded at
  // fill time must now refuse the entry.
  std::string& bytes = it->second.bytes;
  if (bytes.empty()) return false;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  return true;
}

}  // namespace pfact::serve
