#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/serialize.h"
#include "corpus/corpus.h"
#include "loader/image.h"
#include "synth/synth.h"

namespace perfbench {

// --- Params / Json -----------------------------------------------------------

Params::Params(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got: " + a);
    }
    kv_[a.substr(0, eq)] = a.substr(eq + 1);
  }
}

const std::string& Params::str(const std::string& k) const {
  const auto it = kv_.find(k);
  if (it == kv_.end()) throw std::invalid_argument("missing parameter " + k);
  return it->second;
}

double Params::num(const std::string& k) const {
  const std::string& v = str(k);
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw std::invalid_argument("parameter " + k + " is not a number: " + v);
  }
  return d;
}

long Params::integer(const std::string& k) const {
  const double d = num(k);
  if (d != std::floor(d)) {
    throw std::invalid_argument("parameter " + k + " is not whole");
  }
  return static_cast<long>(d);
}

uint64_t Params::seed() const {
  return std::strtoull(str("seed").c_str(), nullptr, 0);
}

void Json::key(std::string_view k) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += k;
  body_ += "\": ";
}

Json& Json::num(std::string_view k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

Json& Json::integer(std::string_view k, int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      body_ += buf;
    } else {
      body_ += c;
    }
  }
  body_ += '"';
  return *this;
}

Json& Json::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

Json& Json::list(std::string_view k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
    body_ += buf;
  }
  body_ += ']';
  return *this;
}

double cpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Mix::next() {
  uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Mix::unit() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

// --- images ------------------------------------------------------------------

namespace {

/// One stripped image and its truth; deterministic in (seed, funcs, opt).
ImageCase makeImage(uint64_t seed, int funcs, int opt) {
  using namespace cati;
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("app", seed ^ 0xabc, funcs), synth::Dialect::Gcc,
      opt, seed);
  loader::Image img = loader::buildImage(bin);
  ImageCase c;
  c.funcs = bin.funcs.size();
  // buildImage lays functions out in order, one boundary each.
  for (size_t f = 0; f < bin.funcs.size(); ++f) {
    for (const synth::Variable& v : bin.funcs[f].vars) {
      c.truth.emplace(std::make_pair(img.boundaries[f].start, v.frameOffset),
                      v.label);
    }
  }
  loader::strip(img);
  std::ostringstream os;
  loader::write(img, os);
  c.bytes = os.str();
  return c;
}

}  // namespace

std::vector<ImageCase> makeImageSet(uint64_t seed, size_t count, int funcsMin,
                                    int funcsMax, int funcsStep) {
  std::vector<int> sizes;
  for (size_t i = 0; sizes.size() < count; ++i) {
    const int span = (funcsMax - funcsMin) / funcsStep + 1;
    sizes.push_back(funcsMin + static_cast<int>(i % static_cast<size_t>(span)) *
                                   funcsStep);
  }
  Mix m{seed};
  for (size_t i = sizes.size(); i > 1; --i) {
    std::swap(sizes[i - 1], sizes[m.below(i)]);
  }
  std::vector<ImageCase> set;
  set.reserve(count);
  for (const int f : sizes) {
    const uint64_t s = m.next();
    set.push_back(makeImage(s, f, static_cast<int>(m.below(4))));
  }
  return set;
}

void saveImageSet(const fs::path& p, const std::vector<ImageCase>& set) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os << "perfbench-images " << set.size() << '\n';
  for (const ImageCase& c : set) {
    os << c.funcs << ' ' << c.bytes.size() << ' ' << c.truth.size() << '\n';
    os.write(c.bytes.data(), static_cast<std::streamsize>(c.bytes.size()));
    os << '\n';
    for (const auto& [key, label] : c.truth) {
      os << key.first << ' ' << key.second << ' ' << static_cast<int>(label)
         << '\n';
    }
  }
  if (!os.flush()) throw std::runtime_error("cannot write " + p.string());
}

std::vector<ImageCase> loadImageSet(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::string magic;
  size_t n = 0;
  if (!(is >> magic >> n) || magic != "perfbench-images") {
    throw std::runtime_error("not an image set: " + p.string());
  }
  std::vector<ImageCase> set(n);
  for (ImageCase& c : set) {
    size_t bytes = 0;
    size_t truth = 0;
    is >> c.funcs >> bytes >> truth;
    is.get();
    c.bytes.resize(bytes);
    is.read(c.bytes.data(), static_cast<std::streamsize>(bytes));
    for (size_t t = 0; t < truth; ++t) {
      uint64_t addr = 0;
      int64_t off = 0;
      int label = 0;
      is >> addr >> off >> label;
      c.truth.emplace(std::make_pair(addr, off),
                      static_cast<cati::TypeLabel>(label));
    }
  }
  if (!is) throw std::runtime_error("truncated image set: " + p.string());
  return set;
}

// --- scoring -----------------------------------------------------------------

void Score::add(const Score& o) {
  vars += o.vars;
  matched += o.matched;
  correct += o.correct;
  vucs += o.vucs;
  parsed = parsed && o.parsed;
}

Score scoreReport(const std::string& report, const ImageCase& c) {
  Score s;
  std::istringstream in(report);
  std::string line;
  uint64_t fnAddr = 0;
  while (std::getline(in, line)) {
    if (line.rfind("fun_", 0) == 0 && line.back() == ':') {
      fnAddr = std::strtoull(line.c_str() + 4, nullptr, 16);
      continue;
    }
    if (line.rfind("  rbp", 0) != 0 && line.rfind("  rsp", 0) != 0) continue;
    // "  rbp%+-6lld %-22s conf %.2f  (%zu VUCs)   <truth>"
    char* end = nullptr;
    const long long off = std::strtoll(line.c_str() + 5, &end, 10);
    const size_t typeBegin = line.find_first_not_of(' ', end - line.c_str());
    const size_t confAt = line.find(" conf ", typeBegin);
    const size_t vucAt = line.find('(', confAt);
    if (typeBegin == std::string::npos || confAt == std::string::npos ||
        vucAt == std::string::npos) {
      s.parsed = false;
      continue;
    }
    std::string type = line.substr(typeBegin, confAt - typeBegin);
    type.erase(type.find_last_not_of(' ') + 1);
    const auto label = cati::typeFromName(type);
    if (!label) {
      s.parsed = false;
      continue;
    }
    ++s.vars;
    s.vucs += std::strtoull(line.c_str() + vucAt + 1, nullptr, 10);
    const auto it = c.truth.find({fnAddr, static_cast<int64_t>(off)});
    if (it == c.truth.end()) continue;
    ++s.matched;
    if (it->second == *label) ++s.correct;
  }
  return s;
}

// --- serving schedule --------------------------------------------------------

std::string_view kindName(Kind k) {
  switch (k) {
    case Kind::kRepeat:
      return "repeat";
    case Kind::kNovel:
      return "novel";
    case Kind::kReconf:
      return "reconf";
  }
  return "?";
}

std::vector<Arrival> makeSchedule(uint64_t seed, const ScheduleSpec& spec) {
  // Poisson arrivals conditioned on their count (rate x seconds): uniform
  // times, sorted. The kinds are an exact split, shuffled, so every seed
  // offers the same load and the same number of novel images.
  Mix m{seed ^ 0x5eedULL};
  const auto n = static_cast<size_t>(std::llround(spec.rate * spec.seconds));
  const auto novel = static_cast<size_t>(std::llround(n * spec.shareNovel));
  const auto reconf = static_cast<size_t>(std::llround(n * spec.shareReconf));
  std::vector<Arrival> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].dueS = m.unit() * spec.seconds;
    out[i].kind = i < novel            ? Kind::kNovel
                  : i < novel + reconf ? Kind::kReconf
                                       : Kind::kRepeat;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(out[i - 1].kind, out[m.below(i)].kind);
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& a, const Arrival& b) { return a.dueS < b.dueS; });
  // Repeats and re-requests each cycle through the popular set in a seeded
  // order, so every popular image gets the same share of both.
  std::vector<uint32_t> order(spec.popular);
  for (uint32_t i = 0; i < spec.popular; ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[m.below(i)]);
  }
  uint32_t novelSeen = 0;
  uint32_t reconfSeen = 0;
  uint32_t repeatSeen = 0;
  for (Arrival& a : out) {
    if (a.kind == Kind::kNovel) {
      a.image = novelSeen++;
    } else {
      uint32_t& seen = a.kind == Kind::kReconf ? reconfSeen : repeatSeen;
      a.image = order[seen % spec.popular];
      // A distinct confMin per re-request: the payload (the result-cache
      // key) is new, the image bytes (the decode-cache key) are not. The
      // floors stay far below any confidence the model reports.
      if (a.kind == Kind::kReconf) {
        a.confMin = 1e-5F * static_cast<float>(seen + 1);
      }
      ++seen;
    }
  }
  return out;
}

size_t novelCount(const std::vector<Arrival>& sched) {
  return static_cast<size_t>(
      std::count_if(sched.begin(), sched.end(),
                    [](const Arrival& a) { return a.kind == Kind::kNovel; }));
}

// --- model -------------------------------------------------------------------

cati::EngineConfig benchEngineConfig(int epochs) {
  cati::EngineConfig cfg;  // production architecture: conv 32/64, FC 128
  cfg.epochs = epochs;
  cfg.maxTrainPerStage = 2000;
  return cfg;
}

cati::Engine trainBenchModel(const Params& p, cati::par::ThreadPool& pool) {
  using namespace cati;
  const std::vector<synth::Binary> bins = synth::generateCorpus(
      static_cast<int>(p.integer("model_apps")),
      static_cast<int>(p.integer("model_funcs")), synth::Dialect::Gcc,
      static_cast<uint64_t>(p.integer("model_seed")), &pool);
  const EngineConfig cfg =
      benchEngineConfig(static_cast<int>(p.integer("model_epochs")));
  const corpus::Dataset ds = corpus::extractAll(bins, cfg.window, true, &pool);
  Engine engine(cfg);
  engine.train(ds, &pool);
  return engine;
}

cati::obs::Snapshot workCounters(const cati::obs::Snapshot& s) {
  cati::obs::Snapshot w = s.withoutTimings();
  std::erase_if(w.counters, [](const auto& c) { return c.value == 0; });
  std::erase_if(w.histograms, [](const auto& h) { return h.count == 0; });
  return w;
}

cati::serve::AnalyzeResult analyzeStripped(cati::Engine& engine,
                                           const std::string& bytes,
                                           cati::par::ThreadPool& pool,
                                           float confMin) {
  std::istringstream is(bytes);
  cati::DiagList diags;
  const std::optional<cati::loader::Image> img =
      cati::loader::tryRead(is, diags);
  if (!img) throw std::runtime_error("image rejected");
  cati::loader::DecodeCache cache;
  cati::serve::AnalyzeOptions opts;
  opts.confMin = confMin;
  opts.cache = &cache;
  cati::serve::AnalyzeResult res =
      cati::serve::analyzeImage(engine, *img, &pool, 0, opts);
  res.diags.insert(res.diags.begin(), diags.begin(), diags.end());
  return res;
}

std::string fileDigest(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08x-%zu",
                cati::io::crc32(bytes.data(), bytes.size()), bytes.size());
  return buf;
}

double stageForwardFlops(const cati::EngineConfig& cfg, cati::Stage s) {
  // makeCnn: Conv(3)-ReLU-MaxPool(2)-Conv(3)-ReLU-MaxPool(2)-FC-ReLU-FC.
  const double in = 3.0 * cfg.w2v.dim;
  const int len0 = 2 * cfg.window + 1;
  const int len1 = len0 >= 2 ? len0 / 2 : len0;
  const int len2 = len1 >= 2 ? len1 / 2 : len1;
  return 2.0 * in * cfg.conv1 * 3 * len0 +
         2.0 * cfg.conv1 * cfg.conv2 * 3 * len1 +
         2.0 * cfg.conv2 * len2 * cfg.fcHidden +
         2.0 * cfg.fcHidden * cati::numClasses(s);
}

}  // namespace perfbench
