// Byte-budget LRU map: the one eviction mechanism behind the decode cache
// (loader/cache.h) and the serve result cache (serve/cache.h).
//
// Keys are byte strings, bucketed by a 32-bit hash (CRC32 unless a caller
// injects one) and resolved by full-key compare inside the bucket, so a
// hash collision can cost a probe, never a wrong answer. Every entry carries
// a caller-stated byte cost; insert() evicts from the LRU tail until the
// costs fit the budget and hands the evicted values back, so each cache
// applies its own policy to them (file removal, counters).
//
// Mechanism only: no locking, no persistence, no metrics. The wrapping
// caches own those, which keeps this free of branches on who is calling.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serialize.h"

namespace cati {

template <class V>
class ByteLru {
 public:
  using HashFn = uint32_t (*)(const std::string& key);

  /// `hash` overrides CRC32 (tests force collisions with it).
  explicit ByteLru(size_t maxBytes, HashFn hash = nullptr)
      : maxBytes_(maxBytes), hash_(hash) {}

  /// The value under `key`, or nullptr. Leaves recency unchanged.
  const V* find(const std::string& key) const {
    const auto it = locate(key);
    return it ? &(*it)->value : nullptr;
  }

  /// Moves `key` to the most-recent end; false when absent.
  bool touch(const std::string& key) {
    const auto it = locate(key);
    if (!it) return false;
    lru_.splice(lru_.begin(), lru_, *it);
    return true;
  }

  /// Inserts key -> value costing `bytes` as the most recent entry,
  /// replacing any entry under `key` (its value is dropped: erase() it first
  /// when it needs cleanup), then evicts from the LRU tail until the budget
  /// holds. Returns the evicted values, least recent first; nullopt, with
  /// nothing changed, when `bytes` alone exceeds the budget.
  std::optional<std::vector<V>> insert(std::string key, V value,
                                       size_t bytes) {
    if (bytes > maxBytes_) return std::nullopt;
    erase(key);
    const uint32_t h = hashOf(key);
    lru_.push_front({std::move(key), std::move(value), bytes, h});
    buckets_[h].push_back(lru_.begin());
    bytes_ += bytes;
    std::vector<V> evicted;
    while (bytes_ > maxBytes_) {
      evicted.push_back(unlink(std::prev(lru_.end())));
    }
    return evicted;
  }

  /// Removes `key`, returning its value; nullopt when absent.
  std::optional<V> erase(const std::string& key) {
    const auto it = locate(key);
    if (!it) return std::nullopt;
    return unlink(*it);
  }

  void clear() {
    lru_.clear();
    buckets_.clear();
    bytes_ = 0;
  }

  size_t size() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }
  size_t maxBytes() const { return maxBytes_; }

 private:
  struct Node {
    std::string key;
    V value;
    size_t bytes = 0;
    uint32_t hash = 0;
  };
  using List = std::list<Node>;  // front = most recently used
  using Iter = typename List::iterator;

  uint32_t hashOf(const std::string& key) const {
    return hash_ != nullptr ? hash_(key) : io::crc32(key.data(), key.size());
  }

  std::optional<Iter> locate(const std::string& key) const {
    const auto bucket = buckets_.find(hashOf(key));
    if (bucket == buckets_.end()) return std::nullopt;
    for (const Iter it : bucket->second) {
      if (it->key == key) return it;  // full-key compare: collision guard
    }
    return std::nullopt;
  }

  V unlink(Iter it) {
    auto bucket = buckets_.find(it->hash);
    std::erase(bucket->second, it);
    if (bucket->second.empty()) buckets_.erase(bucket);
    bytes_ -= it->bytes;
    V value = std::move(it->value);
    lru_.erase(it);
    return value;
  }

  size_t maxBytes_;
  HashFn hash_;
  List lru_;
  std::unordered_map<uint32_t, std::vector<Iter>> buckets_;
  size_t bytes_ = 0;
};

}  // namespace cati
