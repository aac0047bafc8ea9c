// Prints every reproduced paper figure and table, in registry order, with
// each figure's ledger rows (paper claim, admissible interval, reproduced
// value, deviation reason) as notes under its last table. Takes no
// arguments; the values are gated by the PaperLedger test cases.
#include <cstdio>
#include <iostream>
#include <string_view>

#include "bench/paper_ledger.h"

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "bench_paper: unexpected argument '%s' (takes none)\n",
                 argv[1]);
    return 2;
  }
  using namespace llama::bench;
  for (const Figure& figure : figures()) {
    FigureResult result = figure.run();
    for (const LedgerRow& row : ledger())
      if (std::string_view{row.figure} == figure.id)
        result.tables.back().add_note(
            describe(row, result.quantities.at(row.quantity)));
    std::cout << result.heatmaps;
    for (const llama::common::Table& table : result.tables)
      table.print(std::cout);
  }
  return 0;
}
