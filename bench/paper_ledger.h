// The paper-claims ledger: one function per reproduced figure, one registry
// of them, and one table of the paper's claims about what they compute.
// bench_paper prints every figure from the registry; the PaperLedger test
// cases assert every ledger row.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/table.h"

namespace llama::bench {

/// A figure's printed output and the named quantities the ledger checks.
struct FigureResult {
  std::string heatmaps;  // pre-rendered ASCII heatmaps, printed first
  std::vector<common::Table> tables;
  std::map<std::string, double> quantities;
};

struct Figure {
  const char* id;  // e.g. "fig16"; prefixes its quantities when printed
  FigureResult (*run)();
};

/// Every reproduced figure, in print order.
[[nodiscard]] std::span<const Figure> figures();

/// One paper claim about one figure quantity. A row holds when the computed
/// value lies within `tolerance` of `reproduced`, and `reproduced` lies in
/// [lo, hi] exactly when `deviation` is empty: a met claim carries no
/// excuse, and a missed one carries its reason.
struct LedgerRow {
  const char* figure;
  const char* quantity;
  const char* claim;
  double lo, hi;
  double reproduced, tolerance;
  const char* deviation;
};

[[nodiscard]] std::span<const LedgerRow> ledger();

/// The row with the value its figure computed, as one printable line.
[[nodiscard]] std::string describe(const LedgerRow& row, double value);

}  // namespace llama::bench
