// Codebook runtime semantics (O(1) bilinear lookup, refinement windows)
// and the persistence contract: byte-identical golden round-trips, typed
// rejection of truncated/corrupt/stale files.
#include "src/codebook/codebook.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/constants.h"

namespace llama::codebook {
namespace {

using common::Angle;
using common::Frequency;
using common::Voltage;

/// Synthetic lattice with recognizable cell values: cell (fi, oi) holds
/// vx = fi, vy = oi, power = -(fi + oi).
Codebook make_test_book(std::size_t nf = 3, std::size_t no = 5,
                        std::uint64_t top_k = 2,
                        std::uint64_t config_hash = 0xC0DEB00CULL) {
  Codebook::Header h;
  h.config_hash = config_hash;
  h.mode = metasurface::SurfaceMode::kTransmissive;
  // The orientation axis deliberately stops short of pi: cell values here
  // are synthetic (not pi-periodic), and a lattice ending exactly at pi
  // would alias its endpoint onto 0 through the lookup's folding.
  h.frequency_hz = {2.40e9, nf == 1 ? 2.40e9 : 2.48e9, nf};
  h.orientation_rad = {0.0, no == 1 ? 0.0 : 0.9 * common::kPi, no};
  h.v_min_v = 0.0;
  h.v_max_v = 30.0;
  h.v_step_v = 1.0;
  h.top_k = top_k;
  std::vector<CellEntry> cells;
  for (std::size_t fi = 0; fi < nf; ++fi)
    for (std::size_t oi = 0; oi < no; ++oi) {
      CellEntry c;
      c.best = {Voltage{static_cast<double>(fi)},
                Voltage{static_cast<double>(oi)},
                common::PowerDbm{-static_cast<double>(fi + oi)}};
      for (std::uint64_t k = 0; k < top_k; ++k)
        c.refinement.push_back(
            {Voltage{static_cast<double>(fi) + 1.0 + static_cast<double>(k)},
             Voltage{static_cast<double>(oi) + 1.0},
             common::PowerDbm{-10.0 - static_cast<double>(k)}});
      cells.push_back(std::move(c));
    }
  return Codebook{h, std::move(cells)};
}

TEST(CodebookLookup, OnLatticePointsReturnTheirCell) {
  const Codebook book = make_test_book();
  const auto& h = book.header();
  for (std::size_t fi = 0; fi < h.frequency_hz.count; ++fi)
    for (std::size_t oi = 0; oi < h.orientation_rad.count; ++oi) {
      const BiasPoint p =
          book.lookup(Frequency{h.frequency_hz.at(fi)},
                      Angle::radians(h.orientation_rad.at(oi)));
      EXPECT_DOUBLE_EQ(p.vx.value(), static_cast<double>(fi));
      EXPECT_DOUBLE_EQ(p.vy.value(), static_cast<double>(oi));
      EXPECT_DOUBLE_EQ(p.predicted_power.value(),
                       -static_cast<double>(fi + oi));
    }
}

TEST(CodebookLookup, BilinearBlendAtCellMidpoints) {
  const Codebook book = make_test_book();
  const auto& h = book.header();
  const double f_mid = (h.frequency_hz.at(0) + h.frequency_hz.at(1)) / 2.0;
  const double o_mid =
      (h.orientation_rad.at(1) + h.orientation_rad.at(2)) / 2.0;
  const BiasPoint p = book.lookup(Frequency{f_mid}, Angle::radians(o_mid));
  EXPECT_NEAR(p.vx.value(), 0.5, 1e-12);   // between fi=0 and fi=1
  EXPECT_NEAR(p.vy.value(), 1.5, 1e-12);   // between oi=1 and oi=2
  EXPECT_NEAR(p.predicted_power.value(), -2.0, 1e-12);
}

TEST(CodebookLookup, QueriesClampToTheLattice) {
  const Codebook book = make_test_book();
  const BiasPoint low = book.lookup(Frequency::ghz(1.0), Angle::degrees(0.0));
  EXPECT_DOUBLE_EQ(low.vx.value(), 0.0);
  const BiasPoint high =
      book.lookup(Frequency::ghz(9.9), Angle::degrees(0.0));
  EXPECT_DOUBLE_EQ(high.vx.value(), 2.0);  // last frequency row
}

// A NaN query used to reach locate(), whose index cast of a NaN is
// undefined behaviour: lookup(f, NaN) came back as a NaN bias pair and
// lookup(NaN, o) as an arbitrary cell. Both queries now name the bad
// argument.
TEST(CodebookLookup, NonFiniteQueriesAreRejected) {
  const Codebook book = make_test_book();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Frequency f = Frequency::ghz(2.44);
  const Angle o = Angle::degrees(10.0);
  const auto message = [](auto&& query) -> std::string {
    try {
      query();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_NE(message([&] { (void)book.lookup(Frequency{bad}, o); })
                  .find("frequency"),
              std::string::npos);
    EXPECT_NE(message([&] { (void)book.lookup(f, Angle::radians(bad)); })
                  .find("orientation"),
              std::string::npos);
    EXPECT_NE(message([&] { (void)book.nearest(Frequency{bad}, o); })
                  .find("frequency"),
              std::string::npos);
    EXPECT_NE(message([&] { (void)book.nearest(f, Angle::radians(bad)); })
                  .find("orientation"),
              std::string::npos);
  }
  EXPECT_NO_THROW((void)book.lookup(f, o));
}

TEST(CodebookLookup, OrientationFoldsPiPeriodically) {
  const Codebook book = make_test_book();
  const Frequency f{book.header().frequency_hz.at(0)};
  const BiasPoint base = book.lookup(f, Angle::degrees(45.0));
  // 225 deg and -135 deg name the same linear polarization as 45 deg.
  const BiasPoint wrapped = book.lookup(f, Angle::degrees(225.0));
  const BiasPoint negative = book.lookup(f, Angle::degrees(-135.0));
  EXPECT_DOUBLE_EQ(base.vy.value(), wrapped.vy.value());
  EXPECT_DOUBLE_EQ(base.vy.value(), negative.vy.value());
}

TEST(CodebookLookup, FullHalfTurnAxisAliasesItsEndpointOntoZero) {
  // On a [0, pi] lattice, a query at exactly pi folds to 0 — the same
  // physical polarization. Real compiled codebooks hold (numerically)
  // identical optima in both endpoint cells, so the aliasing is lossless.
  Codebook::Header h = make_test_book().header();
  h.orientation_rad = {0.0, common::kPi, 3};
  std::vector<CellEntry> cells;
  for (std::size_t i = 0; i < h.frequency_hz.count * 3; ++i) {
    CellEntry c;
    c.best = {Voltage{static_cast<double>(i % 3)}, Voltage{0.0},
              common::PowerDbm{-1.0}};
    c.refinement.assign(static_cast<std::size_t>(h.top_k), c.best);
    cells.push_back(std::move(c));
  }
  const Codebook book{h, std::move(cells)};
  const Frequency f{h.frequency_hz.at(0)};
  EXPECT_DOUBLE_EQ(book.lookup(f, Angle::radians(common::kPi)).vx.value(),
                   book.lookup(f, Angle::radians(0.0)).vx.value());
}

TEST(CodebookLookup, SinglePointAxesCollapseInterpolation) {
  const Codebook book = make_test_book(/*nf=*/1, /*no=*/1);
  const BiasPoint p =
      book.lookup(Frequency::ghz(7.77), Angle::degrees(123.0));
  EXPECT_DOUBLE_EQ(p.vx.value(), 0.0);
  EXPECT_DOUBLE_EQ(p.vy.value(), 0.0);
}

TEST(CodebookRefinement, WindowCoversNeighborhoodPaddedByOneStep) {
  const Codebook book = make_test_book();
  const CellEntry& c = book.cell(1, 2);  // best at (1, 2), refinement at
                                         // vx in {2, 3}, vy = 3
  const RefinementWindow w = book.refinement_window(c);
  EXPECT_DOUBLE_EQ(w.vx_min.value(), 0.0);  // 1 - 1 (pad) = 0
  EXPECT_DOUBLE_EQ(w.vx_max.value(), 4.0);  // 3 + 1
  EXPECT_DOUBLE_EQ(w.vy_min.value(), 1.0);  // 2 - 1
  EXPECT_DOUBLE_EQ(w.vy_max.value(), 4.0);  // 3 + 1
}

TEST(CodebookConstruction, RejectsInconsistentShapes) {
  Codebook::Header h = make_test_book().header();
  // Wrong cell count.
  EXPECT_THROW((Codebook{h, {}}), std::invalid_argument);
  // Wrong per-cell refinement size.
  std::vector<CellEntry> cells(h.frequency_hz.count *
                               h.orientation_rad.count);
  EXPECT_THROW((Codebook{h, cells}), std::invalid_argument);
}

TEST(CodebookPersistence, RoundTripIsByteIdentical) {
  const Codebook book = make_test_book();
  const std::vector<std::uint8_t> bytes = book.serialize();
  const Codebook reloaded = Codebook::deserialize(bytes);
  // Byte-identical re-serialization is the golden contract: every header
  // field and every cell survived exactly.
  EXPECT_EQ(reloaded.serialize(), bytes);
  EXPECT_EQ(reloaded.header().config_hash, book.header().config_hash);
  EXPECT_EQ(reloaded.cell_count(), book.cell_count());
}

TEST(CodebookPersistence, GoldenHeaderBytes) {
  const std::vector<std::uint8_t> bytes = make_test_book().serialize();
  // Magic "LLAMACBK" then version 1 little-endian — the on-disk contract.
  const std::vector<std::uint8_t> expected_prefix{
      'L', 'L', 'A', 'M', 'A', 'C', 'B', 'K', 0x01, 0x00, 0x00, 0x00};
  ASSERT_GE(bytes.size(), expected_prefix.size());
  EXPECT_TRUE(std::equal(expected_prefix.begin(), expected_prefix.end(),
                         bytes.begin()));
  // Config hash follows, little-endian.
  ASSERT_GE(bytes.size(), 20u);
  EXPECT_EQ(bytes[12], 0x0C);
  EXPECT_EQ(bytes[13], 0xB0);
  EXPECT_EQ(bytes[14], 0xDE);
  EXPECT_EQ(bytes[15], 0xC0);
}

TEST(CodebookPersistence, EveryTruncationIsRejectedWithTypedError) {
  // Fuzz-ish: every proper prefix of a valid file must throw
  // CodebookFormatError — never UB, never a silently wrong codebook.
  const std::vector<std::uint8_t> bytes = make_test_book(2, 3, 1).serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix{bytes.data(), len};
    EXPECT_THROW((void)Codebook::deserialize(prefix), CodebookFormatError)
        << "prefix length " << len;
  }
}

TEST(CodebookPersistence, SingleByteCorruptionIsRejected) {
  const std::vector<std::uint8_t> bytes = make_test_book(2, 2, 1).serialize();
  // Flip one byte in a sample of positions across header, body and
  // trailer; the checksum (or a header validity check) must catch each.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{9}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x40;
    EXPECT_THROW((void)Codebook::deserialize(corrupt), CodebookFormatError)
        << "flipped byte " << pos;
  }
}

TEST(CodebookPersistence, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = make_test_book(1, 2, 0).serialize();
  bytes.push_back(0x00);
  EXPECT_THROW((void)Codebook::deserialize(bytes), CodebookFormatError);
}

TEST(CodebookPersistence, StaleConfigHashIsRejectedWithClearError) {
  const std::vector<std::uint8_t> bytes =
      make_test_book(2, 2, 1, /*config_hash=*/0xAAAAULL).serialize();
  // Matching expectation loads fine.
  EXPECT_NO_THROW((void)Codebook::deserialize(bytes, 0xAAAAULL));
  // Mismatch is a staleness error, not a format error.
  try {
    (void)Codebook::deserialize(bytes, 0xBBBBULL);
    FAIL() << "stale codebook must not load";
  } catch (const CodebookStaleError& e) {
    EXPECT_NE(std::string{e.what()}.find("stale"), std::string::npos);
  }
}

TEST(CodebookPersistence, FileRoundTripThroughDisk) {
  const Codebook book = make_test_book();
  const std::string path = ::testing::TempDir() + "llama_test.codebook";
  book.save(path);
  const Codebook reloaded =
      Codebook::load(path, book.header().config_hash);
  EXPECT_EQ(reloaded.serialize(), book.serialize());
  EXPECT_THROW((void)Codebook::load(path, 0x1234ULL), CodebookStaleError);
  EXPECT_THROW((void)Codebook::load(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace llama::codebook
