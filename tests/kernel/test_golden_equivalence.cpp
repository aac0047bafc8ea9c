// Randomized golden-equivalence suite for the SoA kernel layer.
//
// The scalar planned path (RotatorStack::transmission/reflection over a
// plan) is the golden reference; the kernels may reassociate, so the
// contract is <= 1e-12 per-component agreement — NOT bit-equality. The
// byte-identical invariant is separate and WITHIN the kernel path: one grid
// must memcmp-equal itself for any thread count, and one cell must
// memcmp-equal itself in any window. Each test below says which of these
// properties it asserts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/common/units.h"
#include "src/em/jones.h"
#include "src/kernel/jones_kernels.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"

namespace llama::kernel {
namespace {

using common::Frequency;
using common::Rng;
using common::Voltage;
using em::JonesMatrix;
using metasurface::JonesGrid;
using metasurface::Metasurface;
using metasurface::RotatorStack;
using metasurface::SurfaceMode;

/// The SoA <-> scalar agreement bound (see jones_kernels.h).
constexpr double kTol = 1e-12;

struct NamedDesign {
  const char* name;
  RotatorStack stack;
  double center_ghz;  ///< design band center, the region worth probing
};

std::vector<NamedDesign> all_designs() {
  std::vector<NamedDesign> designs;
  designs.push_back({"reference_rogers", metasurface::reference_rogers_design(), 2.44});
  designs.push_back({"naive_fr4", metasurface::naive_fr4_design(), 2.44});
  designs.push_back({"optimized_fr4", metasurface::optimized_fr4_design(), 2.44});
  designs.push_back({"prototype_fr4", metasurface::prototype_fr4_design(), 2.44});
  designs.push_back({"rfid_900mhz", metasurface::rfid_900mhz_design(), 0.915});
  return designs;
}

double max_component_diff(const JonesMatrix& a, const JonesMatrix& b) {
  double worst = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) {
      worst = std::max(worst, std::abs(a.at(r, c).real() - b.at(r, c).real()));
      worst = std::max(worst, std::abs(a.at(r, c).imag() - b.at(r, c).imag()));
    }
  return worst;
}

std::vector<double> random_axis(Rng& rng, std::size_t n) {
  std::vector<double> axis(n);
  // Beyond-supply values check that the kernel path clamps like set_bias.
  for (double& v : axis) v = rng.uniform(-2.0, 33.0);
  return axis;
}

/// Scalar golden reference for one cell: pointwise response() at the
/// (already raw, to-be-clamped) bias pair, via the planned scalar path.
JonesMatrix scalar_cell(const Metasurface& surface, Frequency f,
                        SurfaceMode mode, double vx, double vy) {
  Metasurface probe = surface;  // fresh copy: keep the original's state pure
  probe.set_bias(Voltage{vx}, Voltage{vy});
  return probe.response(f, mode);
}

/// Property 1 (equivalence bound): random grids on every design, both
/// modes, random frequencies near each design's band — every cell agrees
/// with the pointwise scalar response to <= 1e-12 per component.
TEST(GoldenEquivalence, RandomGridsMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE01};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.9, 1.1));
      const std::vector<double> vxs = random_axis(rng, 7);
      const std::vector<double> vys = random_axis(rng, 5);
      const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
      double worst = 0.0;
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix)
          worst = std::max(
              worst, max_component_diff(grid[iy][ix],
                                        scalar_cell(surface, f, mode,
                                                    vxs[ix], vys[iy])));
      EXPECT_LE(worst, kTol)
          << d.name << " mode=" << static_cast<int>(mode)
          << " f=" << f.in_ghz() << " GHz";
    }
  }
}

/// Property 1 for arbitrary biases: random points as 1x1 windows and
/// random-axis windows, both modes.
TEST(GoldenEquivalence, RandomBatchesMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE02};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.95, 1.05));
      for (int i = 0; i < 23; ++i) {
        const double vx = rng.uniform(-2.0, 33.0);
        const double vy = rng.uniform(-2.0, 33.0);
        const JonesGrid cell = surface.response_grid(f, mode, {vx}, {vy});
        EXPECT_LE(max_component_diff(cell[0][0],
                                     scalar_cell(surface, f, mode, vx, vy)),
                  kTol)
            << d.name << " point " << i;
      }
      const std::vector<double> vxs = random_axis(rng, 3);
      const std::vector<double> vys = random_axis(rng, 4);
      const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix)
          EXPECT_LE(max_component_diff(grid[iy][ix],
                                       scalar_cell(surface, f, mode, vxs[ix],
                                                   vys[iy])),
                    kTol)
              << d.name << " window cell (" << ix << ", " << iy << ")";
    }
  }
}

/// Property 1 under degraded planes: a stuck-cell fault blends in lane
/// space inside the kernels; pointwise response() blends after the scalar
/// path. Both must land within the same 1e-12 bound.
TEST(GoldenEquivalence, StuckCellPlanesMatchScalarWithinTolerance) {
  Rng rng{0xC0FFEE03};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    metasurface::StuckCellFault fault;
    fault.fraction = rng.uniform(0.05, 0.6);
    fault.vx = Voltage{rng.uniform(0.0, 30.0)};
    fault.vy = Voltage{rng.uniform(0.0, 30.0)};
    surface.set_stuck_cells(fault);
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f =
          Frequency::ghz(d.center_ghz * rng.uniform(0.95, 1.05));
      const std::vector<double> vxs = random_axis(rng, 6);
      const std::vector<double> vys = random_axis(rng, 4);
      const JonesGrid grid = surface.response_grid(f, mode, vxs, vys);
      for (std::size_t iy = 0; iy < vys.size(); ++iy)
        for (std::size_t ix = 0; ix < vxs.size(); ++ix) {
          const JonesMatrix golden =
              scalar_cell(surface, f, mode, vxs[ix], vys[iy]);
          EXPECT_LE(max_component_diff(grid[iy][ix], golden), kTol)
              << d.name << " degraded cell (" << ix << ", " << iy << ")";
        }
    }
  }
}

/// Property 2 (byte-identical invariant): the kernel grid path must produce
/// memcmp-equal planes for 1, 2 and 8 workers — same design set, both
/// modes, with and without a degraded plane. This is bit-equality WITHIN
/// the kernel path, orthogonal to the 1e-12 bound against the scalar path.
TEST(GoldenEquivalence, ThreadCountDoesNotChangeGridBytes) {
  Rng rng{0xC0FFEE04};
  for (NamedDesign& d : all_designs()) {
    Metasurface surface{std::move(d.stack)};
    for (const bool degraded : {false, true}) {
      if (degraded)
        surface.set_stuck_cells(metasurface::StuckCellFault{
            0.25, Voltage{rng.uniform(0.0, 30.0)},
            Voltage{rng.uniform(0.0, 30.0)}});
      for (const SurfaceMode mode :
           {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
        const Frequency f = Frequency::ghz(d.center_ghz);
        const std::vector<double> vxs = random_axis(rng, 9);
        const std::vector<double> vys = random_axis(rng, 11);
        const JonesGrid baseline =
            surface.response_grid(f, mode, vxs, vys, /*threads=*/1);
        for (const int threads : {2, 8}) {
          const JonesGrid other =
              surface.response_grid(f, mode, vxs, vys, threads);
          ASSERT_EQ(other.size(), baseline.size());
          for (std::size_t iy = 0; iy < baseline.size(); ++iy) {
            ASSERT_EQ(other[iy].size(), baseline[iy].size());
            EXPECT_EQ(std::memcmp(other[iy].data(), baseline[iy].data(),
                                  baseline[iy].size() * sizeof(JonesMatrix)),
                      0)
                << d.name << " row " << iy << " with " << threads
                << " workers (degraded=" << degraded << ")";
          }
        }
      }
    }
  }
}

/// Evaluates the plane vxs x vys through one kernel built directly on the
/// stack's plan for (f, mode), row by row.
JonesGrid kernel_grid(const RotatorStack& stack, Frequency f, SurfaceMode mode,
                      const std::vector<double>& vxs,
                      const std::vector<double>& vys) {
  JonesGrid grid(vys.size(), std::vector<JonesMatrix>(vxs.size()));
  if (mode == SurfaceMode::kTransmissive) {
    const RotatorStack::TransmissionPlan plan = stack.plan_transmission(f);
    const TransmissionKernel k{stack, plan, vxs, vys};
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      k.eval_grid_row(iy, grid[iy].data());
  } else {
    const RotatorStack::ReflectionPlan plan = stack.plan_reflection(f);
    const ReflectionKernel k{stack, plan, vxs, vys};
    for (std::size_t iy = 0; iy < vys.size(); ++iy)
      k.eval_grid_row(iy, grid[iy].data());
  }
  return grid;
}

bool same_bytes(const JonesMatrix& a, const JonesMatrix& b) {
  return std::memcmp(&a, &b, sizeof(JonesMatrix)) == 0;
}

/// Property 3 (window independence): a kernel cell is a pure function of
/// (plan, vx, vy) — not of the window's shape or the cell's place in it.
/// The shared response engine caches kernel cells from windows of any
/// shape and serves them into other windows, so this is what keeps cached
/// and fresh values byte-equal. Every cell of a 31x31 plane must
/// memcmp-equal the same bias pair evaluated alone (1x1) and inside every
/// 5x5 window that covers it, i.e. at each of the 25 in-window positions
/// an interior cell can take.
TEST(GoldenEquivalence, CellBytesDoNotDependOnWindowShapeOrPosition) {
  Rng rng{0xC0FFEE06};
  constexpr std::size_t kBig = 31;
  constexpr std::size_t kWin = 5;
  for (NamedDesign& d : all_designs()) {
    for (const SurfaceMode mode :
         {SurfaceMode::kTransmissive, SurfaceMode::kReflective}) {
      const Frequency f = Frequency::ghz(d.center_ghz);
      std::vector<double> vxs(kBig);
      std::vector<double> vys(kBig);
      for (double& v : vxs) v = rng.uniform(0.0, 30.0);
      for (double& v : vys) v = rng.uniform(0.0, 30.0);
      const JonesGrid big = kernel_grid(d.stack, f, mode, vxs, vys);
      std::size_t mismatches = 0;
      for (std::size_t iy = 0; iy < kBig; ++iy)
        for (std::size_t ix = 0; ix < kBig; ++ix) {
          const JonesGrid alone =
              kernel_grid(d.stack, f, mode, {vxs[ix]}, {vys[iy]});
          if (!same_bytes(alone[0][0], big[iy][ix])) ++mismatches;
        }
      for (std::size_t y0 = 0; y0 + kWin <= kBig; ++y0)
        for (std::size_t x0 = 0; x0 + kWin <= kBig; ++x0) {
          const std::vector<double> wx(vxs.begin() + x0,
                                       vxs.begin() + x0 + kWin);
          const std::vector<double> wy(vys.begin() + y0,
                                       vys.begin() + y0 + kWin);
          const JonesGrid window = kernel_grid(d.stack, f, mode, wx, wy);
          for (std::size_t iy = 0; iy < kWin; ++iy)
            for (std::size_t ix = 0; ix < kWin; ++ix)
              if (!same_bytes(window[iy][ix], big[y0 + iy][x0 + ix]))
                ++mismatches;
        }
      EXPECT_EQ(mismatches, 0u)
          << d.name << " mode=" << static_cast<int>(mode);
    }
  }
}

/// A tunable first element is both the deep-bounce target and the front
/// face, a shape no catalog design has. Its reflection plane must agree
/// with the scalar path to 1e-12, and its bytes are pinned (FNV-1a of the
/// grid, recorded while the front face solved its own S11 lanes).
TEST(GoldenEquivalence, FirstTunableReflectionMatchesScalarAndPinnedBytes) {
  const RotatorStack proto = metasurface::prototype_fr4_design();
  const metasurface::Board& qwp = proto.elements().at(0).board;
  const metasurface::Board& bfs = proto.elements().at(2).board;
  const common::Angle zero = common::Angle::degrees(0.0);
  Metasurface surface{RotatorStack{{{bfs, zero, 7e-3, true},
                                    {qwp, common::Angle::degrees(-45.0),
                                     6e-3, false},
                                    {bfs, zero, 0.0, true}}}};
  const Frequency f = Frequency::ghz(2.44);
  const std::vector<double> vxs = {0.0, 3.5, 11.0, 24.0, 30.0};
  const std::vector<double> vys = {1.0, 7.5, 19.0, 28.0};
  const JonesGrid grid =
      surface.response_grid(f, SurfaceMode::kReflective, vxs, vys, 1);
  std::uint64_t h = common::kFnv1a64Basis;
  for (std::size_t iy = 0; iy < vys.size(); ++iy) {
    for (std::size_t ix = 0; ix < vxs.size(); ++ix)
      EXPECT_LE(max_component_diff(grid[iy][ix],
                                   scalar_cell(surface, f,
                                               SurfaceMode::kReflective,
                                               vxs[ix], vys[iy])),
                kTol)
          << "cell (" << ix << ", " << iy << ")";
    h = common::fnv1a64(
        std::span{reinterpret_cast<const std::uint8_t*>(grid[iy].data()),
                  grid[iy].size() * sizeof(JonesMatrix)},
        h);
  }
  EXPECT_EQ(h, 0x557cdec483a2039cULL) << std::hex << h;
}

}  // namespace
}  // namespace llama::kernel
