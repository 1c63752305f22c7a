#include "serve/cache.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/errors.h"
#include "common/fault.h"
#include "common/fs.h"
#include "common/obs.h"
#include "common/serialize.h"

namespace cati::serve {

namespace {

constexpr uint32_t kCresMagic = 0x43524553;  // "CRES"
constexpr uint32_t kCresVersion = 1;

std::filesystem::path entryFileName(uint32_t hash, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "e%08x-%llu.cres", hash,
                static_cast<unsigned long long>(seq));
  return buf;
}

/// The seq suffix of an entry file name ("e<hex8>-<seq>.cres"), or nullopt
/// for anything that is not one of ours.
std::optional<uint64_t> parseSeq(const std::string& name) {
  if (name.size() < 12 || name[0] != 'e' || !name.ends_with(".cres")) {
    return std::nullopt;
  }
  const size_t dash = name.find('-');
  if (dash == std::string::npos) return std::nullopt;
  uint64_t seq = 0;
  const size_t end = name.size() - 5;  // strip ".cres"
  if (dash + 1 >= end) return std::nullopt;
  for (size_t i = dash + 1; i < end; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

struct DiskEntry {
  std::string key;
  std::string value;
};

/// Reads and fully validates one entry file. Throws cati::IoError when the
/// environment fails, cati::CorruptError on bad bytes.
DiskEntry readEntryFile(const std::filesystem::path& p) {
  fault::failPoint("serve.cache.read");
  std::ifstream is(p, std::ios::binary);
  if (!is) throw IoError("cache entry: cannot open " + p.string());
  return io::readChecksummed(
      is, kCresMagic, kCresVersion, "cache entry", [](std::istream& ps) {
        io::Reader r(ps);
        DiskEntry e;
        e.key = r.str();
        e.value = r.str();
        return e;
      });
}

/// Best-effort removal of an entry file; a no-op in memory mode.
void removeFile(const std::filesystem::path& file) {
  if (file.empty()) return;
  std::error_code ec;
  std::filesystem::remove(file, ec);
}

/// Drops an entry the LRU let go of: removes its file and counts it.
void evict(const std::filesystem::path& file) {
  static obs::Counter& evictions = obs::counter("serve.cache.evictions");
  removeFile(file);
  evictions.add();
}

}  // namespace

ResultCache::ResultCache(size_t maxBytes, std::filesystem::path dir,
                         HashFn hash)
    : dir_(std::move(dir)), lru_(maxBytes, hash) {
  if (!dir_.empty()) recover();
}

std::optional<std::string> ResultCache::lookup(const std::string& key) {
  static obs::Counter& hits = obs::counter("serve.cache.hits");
  static obs::Counter& misses = obs::counter("serve.cache.misses");
  static obs::Counter& corrupt = obs::counter("serve.cache.corrupt");
  const Stored* found = lru_.find(key);
  if (found == nullptr) {
    misses.add();
    return std::nullopt;
  }
  // Bad bytes on disk (CorruptError) or an environment failure, real or
  // injected (IoError): the entry is useless either way — drop it and
  // recompute. Serving a corrupt reply is the one unacceptable outcome.
  const auto drop = [&]() -> std::optional<std::string> {
    removeFile(found->file);
    lru_.erase(key);
    corrupt.add();
    misses.add();
    return std::nullopt;
  };
  std::string value;
  if (dir_.empty()) {
    value = found->value;
  } else {
    try {
      DiskEntry e = readEntryFile(found->file);
      if (e.key != key) {
        throw CorruptError("cache entry: key mismatch in " +
                           found->file.string());
      }
      value = std::move(e.value);
    } catch (const CorruptError&) {
      return drop();
    } catch (const IoError&) {
      return drop();
    }
  }
  hits.add();
  lru_.touch(key);
  return value;
}

void ResultCache::insert(const std::string& key, const std::string& value) {
  static obs::Counter& inserts = obs::counter("serve.cache.inserts");
  static obs::Counter& oversize = obs::counter("serve.cache.oversize");
  if (lru_.maxBytes() == 0) return;
  const size_t entryBytes = key.size() + value.size();
  if (entryBytes > lru_.maxBytes()) {
    // Would evict the whole cache and still not fit; not worth storing.
    oversize.add();
    return;
  }
  if (const auto old = lru_.erase(key)) removeFile(old->file);
  if (fault::failPoint("serve.cache.write")) {
    throw IoError("serve.cache.write: injected short write");
  }

  Stored s;
  if (dir_.empty()) {
    s.value = value;
  } else {
    s.file = dir_ / entryFileName(io::crc32(key.data(), key.size()), seq_++);
    fs::atomicWrite(s.file, [&](std::ostream& os) {
      io::writeChecksummed(os, kCresMagic, kCresVersion,
                           [&](std::ostream& body) {
                             io::Writer w(body);
                             w.str(key);
                             w.str(value);
                           });
    });
  }
  // Fits by the oversize check above, so the insert is never refused.
  const auto evicted = lru_.insert(key, std::move(s), entryBytes);
  inserts.add();
  for (const Stored& e : *evicted) evict(e.file);
}

void ResultCache::recover() {
  static obs::Counter& recovered = obs::counter("serve.cache.recovered");
  static obs::Counter& corrupt = obs::counter("serve.cache.corrupt");
  std::filesystem::create_directories(dir_);
  fs::cleanupStaleTemps(dir_);

  // Re-index surviving entries in seq order, so LRU order after a restart
  // is insertion order (the best recency signal a restart still has).
  std::vector<std::pair<uint64_t, std::filesystem::path>> files;
  for (const auto& de : std::filesystem::directory_iterator(dir_)) {
    if (!de.is_regular_file()) continue;
    const auto seq = parseSeq(de.path().filename().string());
    if (!seq) continue;
    files.emplace_back(*seq, de.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& [seq, path] : files) {
    seq_ = std::max(seq_, seq + 1);
    DiskEntry d;
    try {
      d = readEntryFile(path);
    } catch (const std::exception&) {
      // Torn is impossible (atomicWrite), but deliberate corruption or a
      // foreign file is not — delete and move on.
      removeFile(path);
      corrupt.add();
      continue;
    }
    recovered.add();
    // Two files for one key only when a replaced entry's removal failed:
    // the later one wins and the stale file goes.
    if (const auto old = lru_.erase(d.key)) removeFile(old->file);
    const size_t bytes = d.key.size() + d.value.size();
    const auto evicted = lru_.insert(std::move(d.key), Stored{{}, path}, bytes);
    if (!evicted) {
      evict(path);  // larger than the whole budget (it shrank since)
      continue;
    }
    for (const Stored& e : *evicted) evict(e.file);
  }
}

}  // namespace cati::serve
