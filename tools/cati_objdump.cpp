// cati-objdump — disassemble an image the way `objdump -d` would: function
// headers (symbolized when possible), one instruction per line, optional
// generalized-token view (--generalize) showing what the classifier sees.
// Malformed images are reported as diagnostics on stderr; undecodable bytes
// print as `.byte` lines (recovering disassembly), never a crash.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "cli.h"
#include "corpus/corpus.h"
#include "loader/image.h"

namespace {

std::string usageLine() {
  return std::string("usage: cati-objdump [--generalize] IMAGE") +
         cati::cli::kCommonUsage + "\n";
}

int run(int argc, char** argv, const cati::cli::Common& common) {
  using namespace cati;
  bool generalize = false;
  const char* path = nullptr;
  cli::SeenFlags seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--generalize") {
      seen.note(arg);
      generalize = true;
    } else if (arg.starts_with("--")) {
      cli::unknownArg(arg);
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      throw cli::UsageError("unexpected extra argument: " + arg);
    }
  }
  if (path == nullptr) {
    std::fputs(usageLine().c_str(), stderr);
    return 2;
  }
  DiagList diags;
  const auto img = loader::readFile(path, diags);
  if (!img) {
    cli::printDiags(diags, common);
    return 1;
  }
  std::printf("%s: %zu bytes of .text at %#llx%s\n\n", path, img->text.size(),
              static_cast<unsigned long long>(img->baseAddr),
              img->stripped() ? " (stripped)" : "");
  par::ThreadPool pool(1);
  loader::DecodeCache noCache(0);
  for (const loader::LoadedFunction& fn :
       loader::disassemble(*img, diags, pool, noCache)) {
    std::printf("%016llx <%s>:\n", static_cast<unsigned long long>(fn.addr),
                fn.name.c_str());
    for (const asmx::Instruction& ins : fn.insns) {
      if (generalize) {
        std::printf("  %-40s | %s\n", asmx::toString(ins).c_str(),
                    corpus::generalize(ins).text().c_str());
      } else {
        std::printf("  %s\n", asmx::toString(ins).c_str());
      }
    }
    std::printf("\n");
  }
  cli::printDiags(diags, common);
  return hasErrors(diags) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cati::cli::toolMain("cati-objdump", argc, argv, run,
                             usageLine().c_str());
}
