// Tests for the binary-image container: build -> disassemble fidelity,
// symbolization, stripping semantics, PLT rewriting and (de)serialization.
#include "loader/image.h"

#include <gtest/gtest.h>

#include <sstream>

#include "asmx/encode.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "loader/cache.h"

namespace cati::loader {
namespace {

synth::Binary smallBin(int funcs = 6, uint64_t seed = 55) {
  return synth::generateBinary(synth::defaultProfile("img", 0x31, funcs),
                               synth::Dialect::Gcc, 2, seed);
}

/// Uncached single-job disassembly: the reference every pooled and cached
/// run is compared against.
std::vector<LoadedFunction> disasm(const Image& img, DiagList& diags) {
  par::ThreadPool pool(1);
  DecodeCache off(0);
  return disassemble(img, diags, pool, off);
}

/// disasm() of a well-formed image, which must decode without a diagnostic.
std::vector<LoadedFunction> disasmClean(const Image& img) {
  DiagList diags;
  std::vector<LoadedFunction> fns = disasm(img, diags);
  EXPECT_TRUE(diags.empty()) << diags.size() << " diagnostics";
  return fns;
}

TEST(Image, BuildLayout) {
  const synth::Binary bin = smallBin();
  const Image img = buildImage(bin);
  ASSERT_EQ(img.boundaries.size(), bin.funcs.size());
  EXPECT_FALSE(img.text.empty());
  // Function symbols + one import per distinct callee.
  EXPECT_GT(img.symbols.size(), bin.funcs.size());
  // Boundaries are sorted, non-overlapping and inside .text.
  for (size_t i = 0; i < img.boundaries.size(); ++i) {
    EXPECT_LT(img.boundaries[i].start, img.boundaries[i].end);
    if (i > 0) {
      EXPECT_GE(img.boundaries[i].start, img.boundaries[i - 1].end);
    }
    EXPECT_LE(img.boundaries[i].end, img.baseAddr + img.text.size());
  }
}

TEST(Image, DisassembleMatchesSource) {
  const synth::Binary bin = smallBin();
  const Image img = buildImage(bin);
  const auto fns = disasmClean(img);
  ASSERT_EQ(fns.size(), bin.funcs.size());
  for (size_t f = 0; f < fns.size(); ++f) {
    EXPECT_EQ(fns[f].name, bin.funcs[f].name);
    ASSERT_EQ(fns[f].insns.size(), bin.funcs[f].insns.size()) << fns[f].name;
    for (size_t i = 0; i < fns[f].insns.size(); ++i) {
      const asmx::Instruction& orig = bin.funcs[f].insns[i];
      const asmx::Instruction& got = fns[f].insns[i];
      EXPECT_EQ(got.mnem, orig.mnem == "retq" ? "ret" : orig.mnem);
      // Call instructions: target was rewritten to the PLT, but the symbol
      // got re-attached with an @plt suffix.
      if (asmx::isCall(orig) &&
          orig.ops[1].kind == asmx::Operand::Kind::Func) {
        ASSERT_EQ(got.ops[1].kind, asmx::Operand::Kind::Func)
            << asmx::toString(got);
        EXPECT_EQ(got.ops[1].sym, orig.ops[1].sym + "@plt");
      } else if (!asmx::isJump(orig)) {
        EXPECT_EQ(got.ops[0], orig.ops[0]) << asmx::toString(orig);
        EXPECT_EQ(got.ops[1], orig.ops[1]) << asmx::toString(orig);
      }
    }
  }
}

TEST(Image, GeneralizedStreamsAgree) {
  // The property the pipeline depends on: the *generalized* token stream of
  // the disassembly equals that of the generator output (so a model trained
  // on ground-truth extraction transfers to image-loaded code).
  const synth::Binary bin = smallBin();
  const auto fns = disasmClean(buildImage(bin));
  for (size_t f = 0; f < fns.size(); ++f) {
    for (size_t i = 0; i < fns[f].insns.size(); ++i) {
      asmx::Instruction orig = bin.funcs[f].insns[i];
      if (orig.mnem == "retq") orig.mnem = "ret";
      EXPECT_EQ(corpus::generalize(fns[f].insns[i]).text(),
                corpus::generalize(orig).text());
    }
  }
}

TEST(Image, StripRemovesSymbolsKeepsBoundariesAndImports) {
  Image img = buildImage(smallBin());
  const size_t nb = img.boundaries.size();
  strip(img);
  EXPECT_TRUE(img.stripped());
  EXPECT_EQ(img.boundaries.size(), nb);
  strip(img);  // idempotent
  EXPECT_TRUE(img.stripped());
  // Import symbols survive (dynsym semantics); function symbols are gone.
  EXPECT_FALSE(img.symbols.empty());
  for (const Symbol& s : img.symbols) EXPECT_TRUE(s.isImport);

  const auto fns = disasmClean(img);
  ASSERT_EQ(fns.size(), nb);
  // Function names are synthesized, but library calls stay symbolized —
  // exactly what objdump shows for a stripped dynamically-linked binary.
  EXPECT_TRUE(fns[0].name.starts_with("fun_"));
  bool sawPltCall = false;
  for (const auto& fn : fns) {
    for (const auto& ins : fn.insns) {
      if (asmx::isCall(ins) &&
          ins.ops[1].kind == asmx::Operand::Kind::Func) {
        EXPECT_TRUE(ins.ops[1].sym.ends_with("@plt"));
        sawPltCall = true;
      }
    }
  }
  EXPECT_TRUE(sawPltCall);
}

TEST(Image, WriteReadRoundTrip) {
  const Image img = buildImage(smallBin());
  std::stringstream ss;
  write(img, ss);
  const Image back = read(ss);
  EXPECT_EQ(back.baseAddr, img.baseAddr);
  EXPECT_EQ(back.text, img.text);
  ASSERT_EQ(back.symbols.size(), img.symbols.size());
  for (size_t i = 0; i < img.symbols.size(); ++i) {
    EXPECT_EQ(back.symbols[i].name, img.symbols[i].name);
    EXPECT_EQ(back.symbols[i].value, img.symbols[i].value);
    EXPECT_EQ(back.symbols[i].isImport, img.symbols[i].isImport);
  }
  ASSERT_TRUE(back.debug.has_value());
  EXPECT_EQ(back.debug->functions.size(), img.debug->functions.size());
}

TEST(Image, StrippedWriteReadRoundTrip) {
  Image img = buildImage(smallBin());
  strip(img);
  std::stringstream ss;
  write(img, ss);
  const Image back = read(ss);
  EXPECT_TRUE(back.stripped());
  EXPECT_EQ(back.text, img.text);
}

TEST(Image, CorruptContainerThrows) {
  std::stringstream ss("definitely not an image file");
  EXPECT_THROW(read(ss), std::runtime_error);
}

namespace {

std::string imageBytes(const Image& img) {
  std::stringstream ss;
  write(img, ss);
  return ss.str();
}

std::optional<Image> tryReadBytes(const std::string& bytes, DiagList& diags) {
  std::istringstream is(bytes);
  return tryRead(is, diags);
}

}  // namespace

TEST(Image, TryReadGarbageReturnsDiagnostics) {
  DiagList diags;
  EXPECT_FALSE(tryReadBytes("definitely not an image file", diags));
  EXPECT_TRUE(hasErrors(diags));
}

TEST(Image, TryReadZeroByteFile) {
  DiagList diags;
  EXPECT_FALSE(tryReadBytes("", diags));
  EXPECT_TRUE(hasErrors(diags));
}

TEST(Image, TryReadBitFlipCaughtByCrc) {
  const std::string good = imageBytes(buildImage(smallBin(2)));
  // Flip one payload bit (past magic+version+length): must be a clean
  // checksum error, not an Image full of nonsense.
  std::string bad = good;
  bad[good.size() / 2] = static_cast<char>(bad[good.size() / 2] ^ 0x10);
  DiagList diags;
  EXPECT_FALSE(tryReadBytes(bad, diags));
  ASSERT_TRUE(hasErrors(diags));
  EXPECT_NE(diags[0].message.find("checksum"), std::string::npos);
}

TEST(Image, TryReadTruncatedFile) {
  const std::string good = imageBytes(buildImage(smallBin(2)));
  DiagList diags;
  EXPECT_FALSE(tryReadBytes(good.substr(0, good.size() - 7), diags));
  EXPECT_TRUE(hasErrors(diags));
}

TEST(Image, TryReadFutureVersionRejected) {
  std::string bytes = imageBytes(buildImage(smallBin(2)));
  bytes[4] = 99;  // version field follows the 4-byte magic
  DiagList diags;
  EXPECT_FALSE(tryReadBytes(bytes, diags));
  ASSERT_TRUE(hasErrors(diags));
  EXPECT_NE(diags[0].message.find("version"), std::string::npos);
}

TEST(Image, ReadFileMissingPathIsDiagnostic) {
  DiagList diags;
  EXPECT_FALSE(readFile("/nonexistent/cati.img", diags));
  EXPECT_TRUE(hasErrors(diags));
}

TEST(Image, ValidateFlagsHostileStructure) {
  Image img = buildImage(smallBin(2));
  DiagList clean;
  EXPECT_TRUE(validate(img, clean));
  EXPECT_FALSE(hasErrors(clean));

  img.boundaries[0].end = img.baseAddr + img.text.size() + 100;
  img.boundaries[1].end = img.boundaries[1].start - 1;
  DiagList diags;
  EXPECT_FALSE(validate(img, diags));
  EXPECT_GE(diags.size(), 2U);
}

TEST(Image, RecoveringDisassembleSkipsBadBoundary) {
  Image img = buildImage(smallBin(3));
  const size_t total = img.boundaries.size();
  img.boundaries[1].end = img.baseAddr + img.text.size() + 100;
  DiagList diags;
  const auto fns = disasm(img, diags);
  EXPECT_EQ(fns.size(), total - 1);  // bad function skipped, rest salvaged
  EXPECT_TRUE(hasErrors(diags));
}

TEST(Image, DataInTextRoundTripsWithByteQuarantine) {
  // A hand-built function with an embedded jump-table blob and padding —
  // the data-in-text shape real stripped binaries have. The container
  // round-trip plus recovering disassembly (what cati-objdump does) must
  // quarantine exactly the data bytes and keep every later instruction at
  // its exact address.
  Image img;
  img.baseAddr = 0x401000;
  uint64_t pc = img.baseAddr;
  const auto emit = [&](const asmx::Instruction& ins) {
    const auto b = asmx::encode(ins, pc);
    img.text.insert(img.text.end(), b.begin(), b.end());
    pc += b.size();
  };
  emit({"push", asmx::Operand::r(asmx::Reg::Rbp, asmx::Width::B8)});
  emit({"mov", asmx::Operand::r(asmx::Reg::Rsp, asmx::Width::B8),
        asmx::Operand::r(asmx::Reg::Rbp, asmx::Width::B8)});
  const uint64_t blobAddr = pc;
  const std::vector<uint8_t> blob = {0x90, 0x90, 0x06, 0x07, 0xFF, 0x17};
  img.text.insert(img.text.end(), blob.begin(), blob.end());
  pc += blob.size();
  const uint64_t callAddr = pc;
  emit({"callq", asmx::Operand::addr(0x401500)});
  emit(asmx::Instruction("ret"));
  img.boundaries.push_back({img.baseAddr, pc});

  DiagList diags;
  const auto loaded = tryReadBytes(imageBytes(img), diags);
  ASSERT_TRUE(loaded.has_value());
  const auto fns = disasm(*loaded, diags);
  ASSERT_EQ(fns.size(), 1U);
  const auto& insns = fns[0].insns;
  ASSERT_EQ(insns.size(), 4 + blob.size());
  EXPECT_EQ(insns[0].mnem, "push");
  EXPECT_EQ(insns[1].mnem, "mov");
  for (size_t i = 0; i < blob.size(); ++i) {
    EXPECT_TRUE(asmx::isQuarantinedByte(insns[2 + i])) << i;
    EXPECT_EQ(insns[2 + i].ops[0].imm, blob[i]) << i;
  }
  // Post-resync correctness is observable through the rel32 call target:
  // it only reconstructs to 0x401500 if the decoder resumed at callAddr.
  EXPECT_EQ(insns[2 + blob.size()].mnem, "callq");
  EXPECT_EQ(insns[2 + blob.size()].ops[0].imm, 0x401500);
  EXPECT_EQ(insns[3 + blob.size()].mnem, "ret");
  (void)callAddr;
  // The quarantined run is reported once, at the blob's address.
  ASSERT_EQ(diags.size(), 1U);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
  EXPECT_EQ(diags[0].offset, blobAddr);
}

// --- decode+lowering cache --------------------------------------------------

namespace {

void expectSameFns(const std::vector<LoadedFunction>& a,
                   const std::vector<LoadedFunction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].insns, b[i].insns);
    EXPECT_EQ(a[i].insnAddrs, b[i].insnAddrs);
    ASSERT_NE(a[i].graph, nullptr);
    ASSERT_NE(b[i].graph, nullptr);
    EXPECT_EQ(a[i].graph->ops.size(), b[i].graph->ops.size());
    EXPECT_EQ(a[i].graph->blocks.size(), b[i].graph->blocks.size());
    EXPECT_EQ(a[i].graph->calleeNames, b[i].graph->calleeNames);
  }
}

void expectSameDiags(const DiagList& a, const DiagList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].severity, b[i].severity);
    EXPECT_EQ(a[i].message, b[i].message);
    EXPECT_EQ(a[i].offset, b[i].offset);
  }
}

}  // namespace

TEST(DecodeCache, SecondPassHitsEveryFunction) {
  const Image img = buildImage(smallBin());
  par::ThreadPool pool(2);
  DecodeCache cache;
  DiagList d1, d2;
  const auto first = disassemble(img, d1, pool, cache);
  const DecodeCache::Stats cold = cache.stats();
  EXPECT_EQ(cold.hits, 0U);
  EXPECT_EQ(cold.misses, img.boundaries.size());
  EXPECT_EQ(cold.entries, img.boundaries.size());

  const auto second = disassemble(img, d2, pool, cache);
  const DecodeCache::Stats warm = cache.stats();
  EXPECT_EQ(warm.hits, img.boundaries.size());
  EXPECT_EQ(warm.misses, img.boundaries.size());
  expectSameFns(first, second);
  expectSameDiags(d1, d2);
}

TEST(DecodeCache, CachedOutputMatchesUncached) {
  const Image img = buildImage(smallBin());
  par::ThreadPool pool(3);
  DecodeCache cache;
  DiagList dPlain, dCold, dWarm;
  const auto plain = disasm(img, dPlain);
  const auto cold = disassemble(img, dCold, pool, cache);
  const auto warm = disassemble(img, dWarm, pool, cache);
  expectSameFns(plain, cold);
  expectSameFns(plain, warm);
  expectSameDiags(dPlain, dCold);
  expectSameDiags(dPlain, dWarm);
}

TEST(DecodeCache, StrippedImageDoesNotAliasUnstripped) {
  // Same bytes, same addresses, different symbol table: the symbol-table
  // fingerprint in the key must keep the symbolized streams apart —
  // a stripped re-analysis must not be served unstripped names.
  const Image img = buildImage(smallBin());
  Image strippedImg = img;
  strip(strippedImg);
  par::ThreadPool pool(2);
  DecodeCache cache;
  DiagList d1, d2, d3;
  const auto full = disassemble(img, d1, pool, cache);
  const auto bare = disassemble(strippedImg, d2, pool, cache);
  const DecodeCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0U);  // distinct keys: the second image misses throughout
  EXPECT_EQ(s.misses, 2 * img.boundaries.size());
  // The cached stripped result matches an uncached stripped disassembly.
  expectSameFns(bare, disasm(strippedImg, d3));
  EXPECT_TRUE(bare[0].name.starts_with("fun_"));
  EXPECT_FALSE(full[0].name.starts_with("fun_"));
}

TEST(DecodeCache, TinyBudgetEvictsButStaysCorrect) {
  const Image img = buildImage(smallBin());
  par::ThreadPool pool(2);
  // Measure the image's working set, then rerun with half of it: every
  // entry fits individually, the set as a whole does not, so the LRU tail
  // must go — and output must not care.
  size_t workingSet = 0;
  {
    DecodeCache probe;
    DiagList d;
    disassemble(img, d, pool, probe);
    workingSet = probe.stats().bytes;
  }
  DecodeCache cache(workingSet / 2);
  DiagList d0, d1, d2;
  const auto plain = disasm(img, d0);
  const auto first = disassemble(img, d1, pool, cache);
  const auto second = disassemble(img, d2, pool, cache);
  const DecodeCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, 0U);
  EXPECT_LT(s.entries, img.boundaries.size());
  EXPECT_LE(s.bytes, workingSet / 2);
  expectSameFns(plain, first);
  expectSameFns(plain, second);
}

TEST(DecodeCache, ZeroBytesIsOff) {
  // A 0-byte cache is off: output matches a cached run, and it makes no
  // lookups, holds no entries and reports no loader.cache.* counts, warm
  // pass or not.
  const Image img = buildImage(smallBin());
  par::ThreadPool pool(2);
  DecodeCache on;
  DecodeCache off(0);
  EXPECT_TRUE(on.enabled());
  EXPECT_FALSE(off.enabled());
  DiagList dOn, d1, d2;
  const auto cached = disassemble(img, dOn, pool, on);
  const bool metricsWereOn = obs::enabled();
  obs::setEnabled(true);
  obs::Registry::global().reset();
  const auto first = disassemble(img, d1, pool, off);
  const auto second = disassemble(img, d2, pool, off);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  obs::setEnabled(metricsWereOn);
  expectSameFns(cached, first);
  expectSameFns(cached, second);
  expectSameDiags(dOn, d1);
  expectSameDiags(dOn, d2);
  const DecodeCache::Stats s = off.stats();
  EXPECT_EQ(s.hits, 0U);
  EXPECT_EQ(s.misses, 0U);
  EXPECT_EQ(s.evictions, 0U);
  EXPECT_EQ(s.entries, 0U);
  EXPECT_EQ(s.bytes, 0U);
  bool sawLoader = false;
  for (const obs::CounterSnapshot& c : snap.counters) {
    sawLoader |= c.name == "loader.functions" && c.value > 0;
    if (c.name.starts_with("loader.cache.")) {
      EXPECT_EQ(c.value, 0U) << c.name;
    }
  }
  EXPECT_TRUE(sawLoader);  // metrics were on: the absence above is real
}

TEST(DecodeCache, JobCountInvariant) {
  // The determinism contract: function list, diagnostics AND cache counters
  // are identical at any job count, cold or warm.
  const Image img = buildImage(smallBin(8, 77));
  par::ThreadPool pool1(1), pool4(4);
  DecodeCache cacheA, cacheB;
  DiagList dA, dB, dA2, dB2;
  const auto coldA = disassemble(img, dA, pool1, cacheA);
  const auto coldB = disassemble(img, dB, pool4, cacheB);
  expectSameFns(coldA, coldB);
  expectSameDiags(dA, dB);
  const auto warmA = disassemble(img, dA2, pool1, cacheA);
  const auto warmB = disassemble(img, dB2, pool4, cacheB);
  expectSameFns(warmA, warmB);
  const DecodeCache::Stats sA = cacheA.stats();
  const DecodeCache::Stats sB = cacheB.stats();
  EXPECT_EQ(sA.hits, sB.hits);
  EXPECT_EQ(sA.misses, sB.misses);
  EXPECT_EQ(sA.evictions, sB.evictions);
  EXPECT_EQ(sA.entries, sB.entries);
  EXPECT_EQ(sA.bytes, sB.bytes);
}

TEST(DecodeCache, ReplaysQuarantineDiagnosticsOnHit) {
  // A function with an undecodable blob: the quarantine warning is part of
  // the cached entry and must be re-emitted on every hit, at the same
  // offset, exactly once per disassembly.
  Image img;
  img.baseAddr = 0x401000;
  uint64_t pc = img.baseAddr;
  const auto emit = [&](const asmx::Instruction& ins) {
    const auto b = asmx::encode(ins, pc);
    img.text.insert(img.text.end(), b.begin(), b.end());
    pc += b.size();
  };
  emit({"push", asmx::Operand::r(asmx::Reg::Rbp, asmx::Width::B8)});
  const std::vector<uint8_t> blob = {0x06, 0x07};
  img.text.insert(img.text.end(), blob.begin(), blob.end());
  pc += blob.size();
  emit(asmx::Instruction("ret"));
  img.boundaries.push_back({img.baseAddr, pc});

  par::ThreadPool pool(2);
  DecodeCache cache;
  DiagList d1, d2;
  const auto first = disassemble(img, d1, pool, cache);
  const auto second = disassemble(img, d2, pool, cache);
  EXPECT_EQ(cache.stats().hits, 1U);
  expectSameFns(first, second);
  expectSameDiags(d1, d2);
  ASSERT_EQ(d2.size(), 1U);
  EXPECT_EQ(d2[0].severity, Severity::Warning);
  // The barrier run survives the cache as an opaque barrier block.
  ASSERT_NE(second[0].graph, nullptr);
  bool sawBarrier = false;
  for (const auto& b : second[0].graph->blocks) sawBarrier |= b.barrier;
  EXPECT_TRUE(sawBarrier);
}

}  // namespace
}  // namespace cati::loader
