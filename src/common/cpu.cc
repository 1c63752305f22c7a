#include "common/cpu.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cati::cpu {

std::string_view isaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::optional<Isa> parseIsa(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "avx512") return Isa::kAvx512;
  return std::nullopt;
}

bool supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      // The exact subsets the kernels use: 512-bit fp FMA (F), byte/word
      // integer ops and masks for the int8 quantizer (BW), 512-bit
      // float<->int converts (DQ), 128/256-bit encodings for tails (VL)
      // and vpdpbusd for the int8 dot reduction (VNNI), plus the VEX FMA
      // the conv kernel's 256-bit tail issues (_mm256_fmadd_ps).
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512vnni") &&
             __builtin_cpu_supports("fma");
  }
  return false;
}

Isa detect() {
  if (supported(Isa::kAvx512)) return Isa::kAvx512;
  if (supported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

namespace {

// -1: unresolved. Resolution is a benign race: every thread that resolves
// concurrently computes the same value (env + CPUID are stable), so a
// relaxed compare-exchange suffices.
std::atomic<int> gActive{-1};

Isa resolve() {
  if (const char* env = std::getenv("CATI_KERNEL")) {
    const auto isa = parseIsa(env);
    if (!isa) {
      throw std::runtime_error(
          std::string("CATI_KERNEL: unknown kernel '") + env +
          "' (want scalar, avx2 or avx512)");
    }
    if (!supported(*isa)) {
      throw std::runtime_error(
          std::string("CATI_KERNEL: kernel '") + env +
          "' is not supported by this CPU");
    }
    return *isa;
  }
  return detect();
}

}  // namespace

Isa active() {
  int cur = gActive.load(std::memory_order_relaxed);
  if (cur < 0) {
    const Isa isa = resolve();
    cur = static_cast<int>(isa);
    int expected = -1;
    if (!gActive.compare_exchange_strong(expected, cur,
                                         std::memory_order_relaxed)) {
      cur = expected;  // someone else resolved first; theirs wins
    }
    // Deliberately no obs counter here: selection is a one-shot process
    // fact, and a counter that fires once per process (not per run) would
    // break snapshot equality across registry resets (test_parallel's
    // metrics-invariance pin). The active kernel is reported via the tools'
    // --verbose line and bench_speed's cati_kernel context instead.
  }
  return static_cast<Isa>(cur);
}

void force(Isa isa) {
  if (!supported(isa)) {
    throw std::runtime_error("--kernel: '" + std::string(isaName(isa)) +
                             "' is not supported by this CPU");
  }
  int expected = -1;
  if (gActive.compare_exchange_strong(expected, static_cast<int>(isa),
                                      std::memory_order_relaxed)) {
    return;
  }
  if (expected != static_cast<int>(isa)) {
    throw std::runtime_error(
        "--kernel: kernel selection already resolved to '" +
        std::string(isaName(static_cast<Isa>(expected))) +
        "' — apply --kernel before any inference");
  }
}

}  // namespace cati::cpu
