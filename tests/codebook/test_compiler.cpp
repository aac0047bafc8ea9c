// Compiler correctness: each lattice cell must hold exactly the winner a
// full-grid Algorithm-1 instrument would report at that orientation, the
// lattice must be byte-identical for any thread count, and the config hash
// must bind to the compile-relevant parameters (and nothing else).
#include "src/codebook/compiler.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/math_utils.h"
#include "src/control/power_supply.h"
#include "src/control/sweep.h"
#include "src/core/scenarios.h"

namespace llama::codebook {
namespace {

using common::Angle;
using common::Frequency;
using common::PowerDbm;
using common::Voltage;

core::SystemConfig test_config() {
  core::SystemConfig cfg = core::transmissive_mismatch_config(1.5);
  cfg.rx_antenna = channel::Antenna::iot_dipole(Angle::degrees(45.0));
  cfg.tx_antenna = channel::Antenna::iot_dipole(Angle::degrees(0.0));
  return cfg;
}

/// Small, fast lattice: 5 orientations over [0, 180], 7x7 bias grid.
CompilerOptions small_options() {
  CompilerOptions opts;
  opts.n_orientations = 5;
  opts.v_step = Voltage{5.0};
  opts.top_k = 3;
  return opts;
}

TEST(CodebookCompiler, CellsMatchTheFullGridSweepInstrument) {
  const core::SystemConfig cfg = test_config();
  const CompilerOptions opts = small_options();
  const Codebook book = CodebookCompiler{cfg}.compile(opts);

  for (std::size_t oi = 0; oi < opts.n_orientations; ++oi) {
    const Angle orientation =
        Angle::radians(book.header().orientation_rad.at(oi));
    core::SystemConfig oriented = cfg;
    oriented.rx_antenna = cfg.rx_antenna.oriented(orientation);
    core::LlamaSystem sys{oriented};
    control::PowerSupply supply;
    control::FullGridSweep sweep{
        supply, {.v_min = opts.v_min, .v_max = opts.v_max,
                 .step = opts.v_step}};
    const control::SweepResult expected =
        sweep.run(sys.make_grid_probe());

    const CellEntry& cell = book.cell(0, oi);
    EXPECT_DOUBLE_EQ(cell.best.vx.value(), expected.best_vx.value())
        << "oi=" << oi;
    EXPECT_DOUBLE_EQ(cell.best.vy.value(), expected.best_vy.value());
    EXPECT_NEAR(cell.best.predicted_power.value(),
                expected.best_power.value(), 1e-12);
    // Runner-ups are strictly no better than the winner.
    for (const BiasPoint& p : cell.refinement)
      EXPECT_LE(p.predicted_power.value(), cell.best.predicted_power.value());
  }
}

TEST(CodebookCompiler, ByteIdenticalForAnyThreadCount) {
  const core::SystemConfig cfg = test_config();
  CompilerOptions serial = small_options();
  serial.threads = 1;
  CompilerOptions parallel = small_options();
  parallel.threads = 5;
  const CodebookCompiler compiler{cfg};
  EXPECT_EQ(compiler.compile(serial).serialize(),
            compiler.compile(parallel).serialize());
}

TEST(CodebookCompiler, TopKIsClampedToTheBiasGrid) {
  CompilerOptions opts = small_options();
  opts.v_step = Voltage{10.0};  // 4x4 grid = 16 cells
  opts.top_k = 100;
  const Codebook book = CodebookCompiler{test_config()}.compile(opts);
  EXPECT_EQ(book.header().top_k, 15u);  // grid cells minus the winner
}

TEST(CodebookCompiler, RejectsDegenerateOptions) {
  const CodebookCompiler compiler{test_config()};
  CompilerOptions no_axis = small_options();
  no_axis.n_orientations = 0;
  EXPECT_THROW((void)compiler.compile(no_axis), std::invalid_argument);
  CompilerOptions bad_freq = small_options();
  bad_freq.n_frequencies = 3;  // f_max == f_min but count > 1
  EXPECT_THROW((void)compiler.compile(bad_freq), std::invalid_argument);
  CompilerOptions bad_grid = small_options();
  bad_grid.v_step = Voltage{-1.0};
  EXPECT_THROW((void)compiler.compile(bad_grid), std::invalid_argument);
}

TEST(CompilerOptions, CompileRejectsAnInvalidOptionNamingTheField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Rule {
    const char* field;
    std::function<void(CompilerOptions&)> break_options;
  };
  const std::vector<Rule> rules = {
      {"f_min", [](CompilerOptions& o) { o.f_min = Frequency{-1.0}; }},
      {"f_min", [&](CompilerOptions& o) { o.f_min = Frequency{nan}; }},
      {"f_max", [&](CompilerOptions& o) { o.f_max = Frequency{inf}; }},
      {"f_max", [](CompilerOptions& o) { o.n_frequencies = 3; }},
      {"f_max",
       [](CompilerOptions& o) {
         o.f_step_hz = 1e6;
         o.f_max = Frequency::ghz(2.0);
       }},
      {"f_step_hz", [](CompilerOptions& o) { o.f_step_hz = 0.0; }},
      {"f_step_hz", [&](CompilerOptions& o) { o.f_step_hz = nan; }},
      {"f_step_hz",
       [](CompilerOptions& o) {
         o.f_max = Frequency::ghz(2.48);
         o.f_step_hz = 1e-4;
       }},
      {"n_frequencies", [](CompilerOptions& o) { o.n_frequencies = 0; }},
      {"orientation_min",
       [&](CompilerOptions& o) { o.orientation_min = Angle::radians(nan); }},
      {"orientation_max",
       [&](CompilerOptions& o) { o.orientation_max = Angle::radians(inf); }},
      {"orientation_max",
       [](CompilerOptions& o) { o.orientation_max = Angle::degrees(0.0); }},
      {"orientation_step",
       [](CompilerOptions& o) { o.orientation_step = Angle::degrees(-5.0); }},
      {"orientation_step",
       [](CompilerOptions& o) { o.orientation_step = Angle::radians(1e-12); }},
      {"n_orientations", [](CompilerOptions& o) { o.n_orientations = 0; }},
      {"v_step", [&](CompilerOptions& o) { o.v_step = Voltage{nan}; }},
      {"v_step", [](CompilerOptions& o) { o.v_step = Voltage{0.0}; }},
      {"v_step", [](CompilerOptions& o) { o.v_step = Voltage{1e-9}; }},
      // 30001^2 cells: ~58 GB of responses per frequency.
      {"v_step", [](CompilerOptions& o) { o.v_step = Voltage{1e-3}; }},
      // 1025 points per axis: one row past the 2^20-cell plane.
      {"v_step", [](CompilerOptions& o) { o.v_step = Voltage{30.0 / 1024}; }},
      {"v_min", [](CompilerOptions& o) { o.v_min = Voltage{-5.0}; }},
      {"v_min", [&](CompilerOptions& o) { o.v_min = Voltage{nan}; }},
      {"v_max", [](CompilerOptions& o) { o.v_max = Voltage{60.0}; }},
      {"v_max", [&](CompilerOptions& o) { o.v_max = Voltage{inf}; }},
      {"v_min",
       [](CompilerOptions& o) {
         o.v_min = Voltage{20.0};
         o.v_max = Voltage{10.0};
       }},
  };
  const auto rejection = [](const std::function<void()>& run) {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{};
  };
  const CodebookCompiler compiler{test_config()};
  const CompilerOptions base = small_options();
  EXPECT_NO_THROW(base.validate());
  CompilerOptions largest_plane = base;  // 1024 x 1024 cells
  largest_plane.v_step = Voltage{30.0 / 1023};
  EXPECT_NO_THROW(largest_plane.validate());
  for (const Rule& rule : rules) {
    CompilerOptions bad = base;
    rule.break_options(bad);
    const std::string what = rejection([&] { (void)compiler.compile(bad); });
    EXPECT_NE(what.find(rule.field), std::string::npos)
        << "a bad " << rule.field << ": '" << what << "'";
    EXPECT_EQ(rejection([&] { bad.validate(); }), what) << rule.field;
  }
}

TEST(ConfigHash, BindsCompileParametersButNotTheQueryAxes) {
  const core::SystemConfig base = test_config();
  const std::uint64_t h0 = system_config_hash(base);

  // The rx orientation is the codebook's query axis: re-orienting the
  // device must NOT read as a configuration change.
  core::SystemConfig reoriented = base;
  reoriented.rx_antenna = base.rx_antenna.oriented(Angle::degrees(123.0));
  EXPECT_EQ(system_config_hash(reoriented), h0);

  // Everything else that shapes the power landscape must.
  core::SystemConfig power = base;
  power.tx_power = common::PowerDbm{7.0};
  EXPECT_NE(system_config_hash(power), h0);

  core::SystemConfig geometry = base;
  geometry.geometry.tx_rx_distance_m *= 2.0;
  EXPECT_NE(system_config_hash(geometry), h0);

  core::SystemConfig mode = base;
  mode.geometry.mode = metasurface::SurfaceMode::kReflective;
  EXPECT_NE(system_config_hash(mode), h0);

  core::SystemConfig antenna = base;
  antenna.tx_antenna = channel::Antenna::omni_6dbi(Angle::degrees(0.0));
  EXPECT_NE(system_config_hash(antenna), h0);

  // The stack design determines every compiled response: a codebook for
  // the Rogers reference build must never validate against the FR4
  // prototype (or any other fabrication).
  EXPECT_NE(system_config_hash(base, metasurface::reference_rogers_design()),
            h0);
  EXPECT_NE(system_config_hash(base, metasurface::naive_fr4_design()), h0);
  // And the default stack argument is the prototype design — the same
  // hardware Metasurface::llama_prototype() wraps.
  EXPECT_EQ(system_config_hash(base, metasurface::prototype_fr4_design()),
            h0);
}

TEST(ConfigHash, DeploymentAndSystemConfigsAgreeWhenMirrored) {
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(4, 1);
  core::SystemConfig cfg;
  cfg.tx_power = scenario.config.tx_power;
  cfg.tx_antenna = scenario.config.tx_antenna;
  cfg.rx_antenna = scenario.config.rx_antenna;
  cfg.geometry = scenario.config.geometry;
  cfg.environment = scenario.config.environment;
  cfg.receiver = scenario.config.receiver;
  EXPECT_EQ(system_config_hash(cfg),
            deployment_config_hash(scenario.config));
}

TEST(ConfigHash, SceneTopologyBindsTheHash) {
  const core::SystemConfig base = test_config();
  const std::uint64_t h0 = system_config_hash(base);

  core::SystemConfig leaky = base;
  leaky.scene.leakage.push_back(channel::LeakageSurfaceSpec{0.4, 0.15});
  const std::uint64_t h_leak = system_config_hash(leaky);
  EXPECT_NE(h_leak, h0);

  core::SystemConfig recoupled = leaky;
  recoupled.scene.leakage[0].coupling = 0.2;
  EXPECT_NE(system_config_hash(recoupled), h_leak);

  core::SystemConfig relayed = base;
  relayed.scene.relays.push_back(channel::RelaySurfaceSpec{1.0, 1.0, 0.9});
  EXPECT_NE(system_config_hash(relayed), h0);
  EXPECT_NE(system_config_hash(relayed), h_leak);

  // Mirrored parity also holds with the interference model on: the
  // deployment hash and the per-device system hash cover the same
  // canonical scene.
  core::DenseDeploymentScenario scenario = core::dense_deployment_scenario(4, 2);
  scenario.config.interference.enable_leakage = true;
  EXPECT_EQ(system_config_hash(core::device_system_config(
                scenario.config, Angle::degrees(30.0))),
            deployment_config_hash(scenario.config));
}

TEST(ConfigHash, PrefixPlusRxFinishEqualsTheFullHash) {
  // The split form LlamaSystem memoizes must be a pure refactoring of the
  // one-shot hash: prefix (rx-independent) + finish (rx mix) reproduces
  // link_config_hash exactly, for scene-free and topology-rich configs.
  for (const bool with_scene : {false, true}) {
    core::SystemConfig cfg = test_config();
    if (with_scene) {
      cfg.scene.leakage.push_back(channel::LeakageSurfaceSpec{0.4, 0.15});
      cfg.scene.relays.push_back(channel::RelaySurfaceSpec{1.0, 1.0, 0.9});
    }
    const metasurface::RotatorStack stack = metasurface::prototype_fr4_design();
    const std::uint64_t full = link_config_hash(
        cfg.tx_power, cfg.geometry, cfg.tx_antenna, cfg.rx_antenna,
        cfg.environment, cfg.receiver, stack, cfg.scene);
    const std::uint64_t split = finish_link_config_hash(
        link_config_prefix(cfg.tx_power, cfg.geometry, cfg.tx_antenna,
                           cfg.environment, cfg.receiver, stack, cfg.scene),
        cfg.rx_antenna);
    EXPECT_EQ(split, full) << "with_scene=" << with_scene;
  }
}

TEST(ConfigHash, LiveSystemMemoTracksDriftAcrossReorientation) {
  // codebook_config_hash memoizes its prefix on structural_revision(); the
  // memo must survive rx re-orientation unchanged (same hash value — the
  // codebook stays valid) yet observe a real set_geometry immediately.
  core::LlamaSystem sys{test_config()};
  const Codebook book = CodebookCompiler{test_config()}.compile(small_options());
  const std::uint64_t h0 = sys.codebook_config_hash();
  EXPECT_EQ(h0, book.header().config_hash);

  sys.link().set_rx_antenna(
      sys.link().rx_antenna().oriented(Angle::degrees(77.0)));
  EXPECT_EQ(sys.codebook_config_hash(), h0);
  EXPECT_NO_THROW(sys.validate_codebook(book, "test"));

  channel::LinkGeometry g = sys.link().geometry();
  g.tx_rx_distance_m *= 2.0;
  sys.link().set_geometry(g);
  EXPECT_NE(sys.codebook_config_hash(), h0);
  EXPECT_THROW(sys.validate_codebook(book, "test"), CodebookStaleError);
}

TEST(ConfigHash, SceneCodebookRejectedBySceneFreeSystem) {
  core::SystemConfig leaky = test_config();
  leaky.scene.leakage.push_back(channel::LeakageSurfaceSpec{0.4, 0.15});
  const Codebook book = CodebookCompiler{leaky}.compile(small_options());

  core::LlamaSystem matching{leaky};
  EXPECT_NO_THROW(matching.validate_codebook(book, "test"));

  core::LlamaSystem scene_free{test_config()};
  EXPECT_THROW(scene_free.validate_codebook(book, "test"),
               CodebookStaleError);
}

TEST(CodebookCompiler, SteppedOrientationAxisPinsExactCellCounts) {
  // The historical float-accumulated axes could alias an extra or missing
  // cell at fine steps (PR 2's FullGridSweep fix); the compiler's lattice
  // now rides the same index-based stepped_range. 0.1 deg over [0, 180]
  // must be exactly 1801 cells.
  const core::SystemConfig cfg = test_config();
  CompilerOptions opts;
  opts.orientation_step = Angle::degrees(0.1);
  opts.v_step = Voltage{15.0};  // coarse bias grid keeps the run fast
  opts.top_k = 2;
  const Codebook book = CodebookCompiler{cfg}.compile(opts);
  ASSERT_EQ(book.header().orientation_rad.count, 1801u);
  EXPECT_EQ(book.cell_count(), 1801u);
  const std::vector<double> expected = common::stepped_range(
      Angle::degrees(0.0).rad(), Angle::degrees(180.0).rad(),
      Angle::degrees(0.1).rad());
  ASSERT_EQ(expected.size(), 1801u);
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{900},
                        std::size_t{1799}, std::size_t{1800}})
    EXPECT_NEAR(book.header().orientation_rad.at(i), expected[i], 1e-12)
        << "i=" << i;
}

TEST(CodebookCompiler, SteppedFrequencyAxisPinsExactCellCounts) {
  const core::SystemConfig cfg = test_config();
  CompilerOptions opts;
  opts.f_min = Frequency::ghz(2.40);
  opts.f_max = Frequency::ghz(2.50);
  opts.f_step_hz = 1e6;  // 1 MHz lattice -> exactly 101 points
  opts.n_orientations = 1;
  opts.v_step = Voltage{15.0};
  opts.top_k = 2;
  const Codebook book = CodebookCompiler{cfg}.compile(opts);
  ASSERT_EQ(book.header().frequency_hz.count, 101u);
  const std::vector<double> expected =
      common::stepped_range(2.40e9, 2.50e9, 1e6);
  ASSERT_EQ(expected.size(), 101u);
  for (std::size_t i : {std::size_t{0}, std::size_t{50}, std::size_t{100}})
    EXPECT_NEAR(book.header().frequency_hz.at(i), expected[i], 1e-3)
        << "i=" << i;
  // Degenerate stepped axes fail loudly.
  CompilerOptions bad = opts;
  bad.f_step_hz = -1.0;
  EXPECT_THROW((void)CodebookCompiler{cfg}.compile(bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace llama::codebook
