// Per-function decode+lowering cache.
//
// Decoding a function body and lowering it to the IR is pure: the result
// depends only on (start address, symbol table, bytes). The cati-serve
// batch loop seeing the same binary across requests repeats that work
// verbatim — this cache shares it. (A single disassemble call never hits:
// lookups run before its serial merge inserts, and every key carries its
// function's address.)
// An entry holds the symbolized instruction stream, the per-instruction
// addresses, the decode diagnostics (replayed into the caller's DiagList),
// and the lowered FunctionGraph shared by pointer.
//
// Keying: the key is the byte string addr || symbol-table fingerprint ||
// exact bytes. The same bytes at a different address decode differently
// (rel32 branch targets resolve against the instruction address), and the
// same bytes under a different symbol table symbolize differently (stripped
// vs unstripped), so both participate. Bucketing, full-key compare and
// byte-budget eviction are the shared ByteLru (common/lru.h); this class
// keeps the key, the entry cost, the lock and the counters.
//
// A 0-byte budget means off: disassemble() then makes no lookups and no
// inserts and reports no loader.cache.* counters.
//
// Determinism contract (DESIGN.md §13): lookups during the loader's
// parallel fan-out never mutate LRU state; promotions and insertions are
// applied by the serial boundary-order merge. Cache evolution is therefore
// a pure function of the image sequence, and hit/miss/eviction counts are
// identical at any `--jobs`.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "asmx/instruction.h"
#include "common/diag.h"
#include "common/lru.h"
#include "ir/ir.h"

namespace cati::loader {

class DecodeCache {
 public:
  static constexpr size_t kDefaultBytes = 32ull << 20;

  explicit DecodeCache(size_t maxBytes = kDefaultBytes) : lru_(maxBytes) {}

  /// False for a 0-byte budget: the cache is off.
  bool enabled() const { return lru_.maxBytes() > 0; }

  struct Entry {
    std::vector<asmx::Instruction> insns;  ///< symbolized for the keyed table
    std::vector<uint64_t> insnAddrs;
    DiagList decodeDiags;  ///< decoder diagnostics, replayed on every hit
    std::shared_ptr<const ir::FunctionGraph> graph;  ///< block passes run
  };

  /// Read-only lookup (safe from parallel workers; no LRU mutation).
  std::shared_ptr<const Entry> find(uint64_t addr, uint64_t salt,
                                    std::span<const uint8_t> bytes) const;

  /// Moves an existing entry to the LRU front. Serial-merge phase only.
  void promote(uint64_t addr, uint64_t salt,
               std::span<const uint8_t> bytes);

  /// Inserts (or replaces) an entry, evicting LRU tails past the byte
  /// budget. Serial-merge phase only. Returns evictions performed.
  size_t insert(uint64_t addr, uint64_t salt,
                std::span<const uint8_t> bytes,
                std::shared_ptr<const Entry> entry);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats stats() const;
  void clear();

 private:
  using Lru = ByteLru<std::shared_ptr<const Entry>>;

  static std::string makeKey(uint64_t addr, uint64_t salt,
                             std::span<const uint8_t> bytes);
  static size_t entryCost(const std::string& key, const Entry& e);

  mutable std::mutex mu_;
  Lru lru_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace cati::loader
