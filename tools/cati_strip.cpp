// cati-strip — remove symbol table and debug info from an image, like
// strip(1). Usage: cati-strip IN.img [OUT.img]  (in place by default).
// Corrupt or unreadable inputs exit nonzero with a one-line diagnostic.
// The output is written atomically (DESIGN.md §9), which matters most for
// the in-place default: a crash mid-write leaves the original image intact.
#include <cstdio>
#include <string>

#include "cli.h"
#include "common/fs.h"
#include "loader/image.h"

int main(int argc, char** argv) {
  using namespace cati;
  std::string in;
  std::string out;  // empty: strip in place
  cli::Table table("cati-strip",
                   {cli::positional("IN.img", &in),
                    cli::positional("OUT.img", &out, /*required=*/false)});
  return cli::toolMain(table, argc, argv, [&] {
    if (out.empty()) out = in;
    DiagList diags;
    auto img = loader::readFile(in, diags);
    if (!img) {
      cli::printDiags(diags, table.common());
      return 1;
    }
    const size_t before = img->symbols.size();
    loader::strip(*img);
    fs::atomicWrite(out,
                    [&img](std::ostream& os) { loader::write(*img, os); });
    std::printf("%s: removed %zu symbols and debug info -> %s\n", in.c_str(),
                before, out.c_str());
    cli::printDiags(diags, table.common());
    return 0;
  });
}
