// The paper-claims ledger, checked: one case per registered figure (so
// `ctest -j` spreads the figures across cores), each running its figure
// once and asserting every ledger row that names it.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "bench/paper_ledger.h"

namespace llama::bench {

// Found by argument-dependent lookup, so it lives in Figure's namespace.
void PrintTo(const Figure& figure, std::ostream* os) { *os << figure.id; }

namespace {

class PaperLedger : public ::testing::TestWithParam<Figure> {};

TEST_P(PaperLedger, RowsHold) {
  const Figure& figure = GetParam();
  const FigureResult result = figure.run();
  std::set<std::string> checked;
  for (const LedgerRow& row : ledger()) {
    if (std::string_view{row.figure} != figure.id) continue;
    checked.insert(row.quantity);
    const auto it = result.quantities.find(row.quantity);
    ASSERT_NE(it, result.quantities.end())
        << figure.id << " computes no " << row.quantity;
    SCOPED_TRACE(describe(row, it->second));
    EXPECT_NEAR(it->second, row.reproduced, row.tolerance)
        << "a reproduced number moved; update its ledger row";
    const bool claim_met = row.lo <= row.reproduced && row.reproduced <= row.hi;
    EXPECT_EQ(claim_met, row.deviation[0] == '\0')
        << (claim_met ? "a met claim carries no deviation reason"
                      : "a missed claim needs a deviation reason");
  }
  for (const auto& [name, value] : result.quantities)
    EXPECT_TRUE(checked.count(name) != 0)
        << figure.id << "." << name << " = " << value << " has no ledger row";
  EXPECT_FALSE(checked.empty()) << figure.id << " has no ledger rows";
}

INSTANTIATE_TEST_SUITE_P(
    Figures, PaperLedger, ::testing::ValuesIn(figures().begin(),
                                              figures().end()),
    [](const ::testing::TestParamInfo<Figure>& param) {
      return std::string{param.param.id};
    });

TEST(PaperLedgerRows, NameRegisteredFigures) {
  std::set<std::string_view> ids;
  for (const Figure& figure : figures()) ids.insert(figure.id);
  for (const LedgerRow& row : ledger())
    EXPECT_TRUE(ids.count(row.figure) != 0)
        << row.figure << "." << row.quantity;
}

}  // namespace
}  // namespace llama::bench
