#include "loader/cache.h"

namespace cati::loader {

std::string DecodeCache::makeKey(uint64_t addr, uint64_t salt,
                                 std::span<const uint8_t> bytes) {
  std::string key(reinterpret_cast<const char*>(&addr), sizeof addr);
  key.append(reinterpret_cast<const char*>(&salt), sizeof salt);
  key.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  return key;
}

size_t DecodeCache::entryCost(const std::string& key, const Entry& e) {
  // Approximate resident cost: the key plus decoded/lowered forms.
  return key.size() + e.insns.size() * (sizeof(asmx::Instruction) + 16) +
         e.insnAddrs.size() * sizeof(uint64_t) +
         (e.graph ? e.graph->ops.size() * sizeof(ir::Op) +
                        e.graph->blocks.size() * sizeof(ir::Block)
                  : 0) +
         sizeof(Entry);
}

std::shared_ptr<const DecodeCache::Entry> DecodeCache::find(
    uint64_t addr, uint64_t salt, std::span<const uint8_t> bytes) const {
  const std::string key = makeKey(addr, salt, bytes);
  std::lock_guard<std::mutex> lock(mu_);
  const auto* entry = lru_.find(key);
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return *entry;
}

void DecodeCache::promote(uint64_t addr, uint64_t salt,
                          std::span<const uint8_t> bytes) {
  const std::string key = makeKey(addr, salt, bytes);
  std::lock_guard<std::mutex> lock(mu_);
  lru_.touch(key);
}

size_t DecodeCache::insert(uint64_t addr, uint64_t salt,
                           std::span<const uint8_t> bytes,
                           std::shared_ptr<const Entry> entry) {
  std::string key = makeKey(addr, salt, bytes);
  const size_t cost = entryCost(key, *entry);
  std::lock_guard<std::mutex> lock(mu_);
  // Two identical boundaries raced to decode (hostile images can repeat a
  // boundary): keep the incumbent, just refresh recency.
  if (lru_.touch(key)) return 0;
  const auto evicted = lru_.insert(std::move(key), std::move(entry), cost);
  if (!evicted) return 0;  // would never fit; don't thrash
  evictions_ += evicted->size();
  return evicted->size();
}

DecodeCache::Stats DecodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = lru_.bytes();
  return s;
}

void DecodeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
}

}  // namespace cati::loader
