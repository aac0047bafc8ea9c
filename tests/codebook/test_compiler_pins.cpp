// Pins CodebookCompiler::compile bit for bit. Two checks:
//
//  - FNV-1a hashes of Codebook::serialize() for seven link configurations
//    (absorber, laboratory multipath, reflective, an interference floor, a
//    noise-dominated plane, a plane where every cell clamps and ties, and
//    cross-surface leakage) under three option sets. The hashes were
//    recorded from the compiler as it ranked every cell by its measured
//    dBm; any reordering, rounding or tie-break change moves them.
//  - A seeded property test: each cell's best and refinement points equal,
//    bit for bit, the first top_k + 1 cells of a brute-force ranking done
//    here, with every bias cell measured through
//    Receiver::expected_measure(PropagationScene::received_power_swept())
//    and sorted by power descending, then scan index.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/codebook/compiler.h"
#include "src/common/math_utils.h"
#include "src/common/rng.h"
#include "src/common/serde.h"
#include "src/core/scenarios.h"

namespace llama::codebook {
namespace {

using common::Angle;
using common::Frequency;
using common::PowerDbm;
using common::Voltage;

/// The dense-deployment device link (N=48, M=4) at 0 deg, with `tweak`
/// applied to its deployment config first.
template <typename Tweak>
core::SystemConfig dense_link(Tweak tweak) {
  deploy::DeploymentConfig config = core::dense_deployment_scenario(48, 4).config;
  tweak(config);
  return core::device_system_config(config, Angle::degrees(0.0));
}

struct NamedConfig {
  const char* name;
  core::SystemConfig config;
};

std::vector<NamedConfig> pinned_configs() {
  return {
      {"absorber", dense_link([](deploy::DeploymentConfig&) {})},
      {"laboratory",
       dense_link([](deploy::DeploymentConfig& c) {
         common::Rng rng{42};
         c.environment = channel::Environment::laboratory(rng);
       })},
      {"reflective",
       dense_link([](deploy::DeploymentConfig& c) {
         c.geometry.mode = metasurface::SurfaceMode::kReflective;
       })},
      {"interference",
       dense_link([](deploy::DeploymentConfig& c) {
         c.environment =
             channel::Environment::with_interference(PowerDbm{-50.0});
       })},
      {"tx_-90dBm",
       dense_link([](deploy::DeploymentConfig& c) {
         c.tx_power = PowerDbm{-90.0};
       })},
      {"tx_-300dBm",
       dense_link([](deploy::DeploymentConfig& c) {
         c.tx_power = PowerDbm{-300.0};
       })},
      {"leakage",
       dense_link([](deploy::DeploymentConfig& c) {
         c.interference.enable_leakage = true;
       })},
  };
}

std::vector<CompilerOptions> pinned_options() {
  CompilerOptions defaults;
  defaults.threads = 1;
  CompilerOptions fine;
  fine.v_step = Voltage{0.25};
  fine.n_orientations = 19;
  fine.top_k = 12;
  fine.threads = 2;
  CompilerOptions lattice;
  lattice.f_min = Frequency::ghz(2.40);
  lattice.f_max = Frequency::ghz(2.48);
  lattice.n_frequencies = 3;
  lattice.orientation_step = Angle::degrees(2.5);
  lattice.top_k = 0;
  return {defaults, fine, lattice};
}

/// kPins[config][options], in pinned_configs() x pinned_options() order.
constexpr std::uint64_t kPins[7][3] = {
    {0xf14c604a6847fe42ULL, 0x10c26e83eb715c77ULL, 0x3ff58c1d6335a1c9ULL},
    {0xd270268edd095a1cULL, 0xd0fd0afdae4dec46ULL, 0x00bfa7d8046fb52fULL},
    {0xeadf788ac17df28fULL, 0x7509a424a564586dULL, 0x8747f757908f23d3ULL},
    {0xd04860a06aab8a87ULL, 0xc6038436a0e83ccbULL, 0x84e9005c35568321ULL},
    {0xdb0bd5681b092745ULL, 0xb602fb10984d0311ULL, 0xdeca74ea188b9d6aULL},
    {0xc71961186570226bULL, 0x7756b22f71d38d90ULL, 0xd8bcb1b92793f874ULL},
    {0xe6665b09c3527c2fULL, 0x2752e119eda8b9deULL, 0xf82482b002b9656cULL},
};

TEST(CodebookPins, SerializedCodebooksMatchRecordedHashes) {
  const std::vector<NamedConfig> configs = pinned_configs();
  const std::vector<CompilerOptions> options = pinned_options();
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const CodebookCompiler compiler{configs[ci].config};
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const std::uint64_t h =
          common::fnv1a64(compiler.compile(options[oi]).serialize());
      EXPECT_EQ(h, kPins[ci][oi])
          << configs[ci].name << " options " << oi << ": 0x" << std::hex << h;
    }
  }
}

/// The first top_k + 1 cells of lattice cell (fi, oi), ranked here by brute
/// force: every bias cell measured, sorted by power descending, then scan
/// index (vy outer, vx inner).
std::vector<BiasPoint> brute_force_ranking(const core::SystemConfig& cfg,
                                           const CompilerOptions& opts,
                                           const Codebook::Header& header,
                                           std::size_t fi, std::size_t oi) {
  const Frequency f{header.frequency_hz.at(fi)};
  const std::vector<double> vs = common::stepped_range(
      opts.v_min.value(), opts.v_max.value(), opts.v_step.value());
  const metasurface::JonesGrid responses =
      metasurface::Metasurface::llama_prototype().response_grid(
          f, header.mode, vs, vs, 1);
  const channel::PropagationScene scene = channel::PropagationScene::from_spec(
      cfg.tx_antenna,
      cfg.rx_antenna.oriented(
          Angle::radians(header.orientation_rad.at(oi))),
      cfg.geometry, cfg.environment, cfg.scene);
  const channel::PropagationScene::FrozenEval frozen = scene.freeze_except(
      channel::PropagationScene::kHomeSurface, cfg.tx_power, f, {});
  const radio::Receiver receiver{cfg.receiver, common::Rng{0}};

  std::vector<double> powers;
  for (std::size_t iy = 0; iy < vs.size(); ++iy)
    for (std::size_t ix = 0; ix < vs.size(); ++ix)
      powers.push_back(
          receiver
              .expected_measure(
                  scene.received_power_swept(frozen, responses[iy][ix]))
              .value());
  std::vector<std::size_t> order(powers.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return powers[a] > powers[b];
                   });
  std::vector<BiasPoint> top;
  for (std::size_t k = 0; k <= header.top_k; ++k) {
    BiasPoint p;
    p.vx = Voltage{vs[order[k] % vs.size()]};
    p.vy = Voltage{vs[order[k] / vs.size()]};
    p.predicted_power = PowerDbm{powers[order[k]]};
    top.push_back(p);
  }
  return top;
}

void expect_same_bits(const BiasPoint& got, const BiasPoint& want,
                      const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.vx.value()),
            std::bit_cast<std::uint64_t>(want.vx.value()))
      << what << " vx";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.vy.value()),
            std::bit_cast<std::uint64_t>(want.vy.value()))
      << what << " vy";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_power.value()),
            std::bit_cast<std::uint64_t>(want.predicted_power.value()))
      << what << " power " << std::hexfloat << got.predicted_power.value()
      << " vs " << want.predicted_power.value();
}

TEST(CodebookPins, CellsEqualABruteForceRankingForRandomLinks) {
  common::Rng rng{0xC0DEB00C};
  for (int draw = 0; draw < 24; ++draw) {
    core::SystemConfig cfg = core::transmissive_mismatch_config(
        rng.uniform(0.3, 2.0));
    cfg.rx_antenna = channel::Antenna::iot_dipole(
        Angle::degrees(rng.uniform(0.0, 180.0)));
    // Both ends of the power range are drawn on purpose: at -300 dBm every
    // cell clamps and ties, near -90 dBm the thermal floor dominates.
    cfg.tx_power = draw == 0   ? PowerDbm{-300.0}
                   : draw == 1 ? PowerDbm{-90.0}
                               : PowerDbm{rng.uniform(-300.0, 20.0)};
    if (rng.chance(0.5))
      cfg.geometry.mode = metasurface::SurfaceMode::kReflective;
    if (rng.chance(0.4)) {
      common::Rng room = rng.fork();
      cfg.environment = channel::Environment::laboratory(room);
    } else if (rng.chance(0.5)) {
      cfg.environment = channel::Environment::with_interference(
          PowerDbm{rng.uniform(-110.0, -40.0)});
    }
    if (rng.chance(0.4)) {
      deploy::InterferenceModel leakage;
      leakage.enable_leakage = true;
      cfg.scene = deploy::device_scene_spec(
          static_cast<std::size_t>(rng.uniform_int(2, 4)), leakage);
    }
    CompilerOptions opts;
    opts.n_orientations = static_cast<std::size_t>(rng.uniform_int(2, 4));
    opts.v_step = Voltage{rng.chance(0.5) ? 2.5 : 3.0};
    opts.top_k = static_cast<std::size_t>(rng.uniform_int(0, 8));
    opts.threads = 1;

    const Codebook book = CodebookCompiler{cfg}.compile(opts);
    for (std::size_t oi = 0; oi < book.header().orientation_rad.count; ++oi) {
      const std::vector<BiasPoint> want =
          brute_force_ranking(cfg, opts, book.header(), 0, oi);
      const CellEntry& cell = book.cell(0, oi);
      const std::string what = "draw " + std::to_string(draw) + " tx " +
                               std::to_string(cfg.tx_power.value()) +
                               " dBm, orientation " + std::to_string(oi);
      ASSERT_EQ(cell.refinement.size() + 1, want.size()) << what;
      expect_same_bits(cell.best, want[0], what + " best");
      for (std::size_t k = 0; k < cell.refinement.size(); ++k)
        expect_same_bits(cell.refinement[k], want[k + 1],
                         what + " refinement " + std::to_string(k));
    }
  }
}

TEST(CodebookPins, NanTransmitPowerIsRejected) {
  core::SystemConfig cfg = core::transmissive_mismatch_config(1.0);
  cfg.tx_power = PowerDbm{std::numeric_limits<double>::quiet_NaN()};
  CompilerOptions opts;
  opts.n_orientations = 2;
  opts.v_step = Voltage{5.0};
  EXPECT_THROW((void)CodebookCompiler{cfg}.compile(opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace llama::codebook
