// cati-objdump — disassemble an image the way `objdump -d` would: function
// headers (symbolized when possible), one instruction per line, optional
// generalized-token view (--generalize) showing what the classifier sees.
// Malformed images are reported as diagnostics on stderr; undecodable bytes
// print as `.byte` lines (recovering disassembly), never a crash.
#include <cstdio>
#include <string>

#include "cli.h"
#include "corpus/corpus.h"
#include "loader/image.h"

int main(int argc, char** argv) {
  using namespace cati;
  std::string path;
  bool generalize = false;
  cli::Table table("cati-objdump", {cli::flag("--generalize", &generalize),
                                    cli::positional("IMAGE", &path)});
  return cli::toolMain(table, argc, argv, [&] {
    DiagList diags;
    const auto img = loader::readFile(path, diags);
    if (!img) {
      cli::printDiags(diags, table.common());
      return 1;
    }
    std::printf("%s: %zu bytes of .text at %#llx%s\n\n", path.c_str(),
                img->text.size(),
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
    cli::printDiags(diags, table.common());
    return hasErrors(diags) ? 1 : 0;
  });
}
