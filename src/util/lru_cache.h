// LruCache — a byte-budgeted least-recently-used map, the storage behind
// each stripe of the serve path's response cache (DESIGN.md §15).
//
// Eviction is by bytes, not entry count: every Put carries the caller's
// estimate of the entry's footprint, and inserts evict from the cold tail
// until the running total fits the budget again. A single entry larger
// than the whole budget is admitted and immediately becomes the only
// resident (then evicted by the next insert) — the cache never rejects,
// it only forgets.
//
// NOT thread-safe. The serve path guards each stripe's instance with the
// stripe's own mutex.
#ifndef IMSR_UTIL_LRU_CACHE_H_
#define IMSR_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace imsr::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(size_t byte_budget) : budget_(byte_budget) {
    IMSR_CHECK_GT(byte_budget, 0u);
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  // Pointer to the cached value, or nullptr on miss. A hit moves the
  // entry to the warm end of the LRU order. The pointer is valid until
  // the next Put (which may evict it).
  const Value* Get(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  // Inserts (or replaces) `key` at the warm end, charging `bytes` against
  // the budget, then evicts cold entries until the total fits again.
  void Put(const Key& key, Value value, size_t bytes) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      bytes_ -= it->second->bytes;
      it->second->value = std::move(value);
      it->second->bytes = bytes;
      bytes_ += bytes;
      entries_.splice(entries_.begin(), entries_, it->second);
    } else {
      entries_.push_front(Entry{key, std::move(value), bytes});
      index_.emplace(key, entries_.begin());
      bytes_ += bytes;
    }
    while (bytes_ > budget_ && entries_.size() > 1) EvictColdest();
    // A single over-budget entry stays resident (see header comment); it
    // goes first when anything else arrives.
  }

  size_t bytes() const { return bytes_; }
  size_t budget() const { return budget_; }
  size_t entries() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t bytes = 0;
  };

  void EvictColdest() {
    IMSR_CHECK(!entries_.empty());
    const Entry& cold = entries_.back();
    bytes_ -= cold.bytes;
    index_.erase(cold.key);
    entries_.pop_back();
    ++evictions_;
  }

  const size_t budget_;
  size_t bytes_ = 0;
  // Front = most recently used. The index maps keys to list iterators,
  // which std::list keeps stable across splices.
  std::list<Entry> entries_;
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace imsr::util

#endif  // IMSR_UTIL_LRU_CACHE_H_
