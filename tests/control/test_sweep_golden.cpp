// Pins the bias searches bit for bit. The literals were recorded while every
// search still had two bodies — a pointwise one that probed cell by cell and
// a grid/batch one — and are reproduced by the single body each search has
// now, with pointwise probes lifted through grid_of for the sweeps:
//
//  - noisy LlamaSystem::optimize_link() rounds (the quickstart link and one
//    point each of Figs. 16-19 and 22): the OptimizationReport, the
//    Algorithm-1 trace, and one follow-up measure_with_surface(), which pins
//    how far the receiver and interference RNG streams advanced;
//  - FullGridSweep, CoarseToFineSweep and RandomSearch on a synthetic plant,
//    and the search ablation's random-search row (recorded over the bias-pair
//    batch probe it ran on before it moved to 1x1 grid-probe windows);
//  - HysteresisResweep's TrackReport on a swinging wearable (the hash was
//    equal for the serial and the batched re-sweep paths it replaced).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/control/search.h"
#include "src/control/sweep.h"
#include "src/core/scenarios.h"
#include "src/track/retune_policy.h"
#include "src/track/tracking_loop.h"

namespace llama::control {
namespace {

using common::PowerDbm;
using common::Voltage;

/// FNV-1a 64 over a sequence of doubles' bit patterns.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t trace_hash(const std::vector<SweepSample>& trace) {
  Fnv f;
  for (const SweepSample& s : trace) {
    f.add(s.vx.value());
    f.add(s.vy.value());
    f.add(s.power.value());
  }
  return f.h;
}

std::uint64_t grid_hash(const FullGridSweep& sweep) {
  Fnv f;
  for (double v : sweep.vx_values()) f.add(v);
  for (double v : sweep.vy_values()) f.add(v);
  for (const auto& row : sweep.grid_dbm())
    for (double p : row) f.add(p);
  return f.h;
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Exact (bitwise) equality with the recorded literal printed on failure.
void expect_bits(double got, double golden, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(golden))
      << what << ": got " << hex(got) << ", pinned " << hex(golden);
}

void expect_sweep(const SweepResult& r, double vx, double vy, double power,
                  int probes, double time_cost_s) {
  expect_bits(r.best_vx.value(), vx, "best_vx");
  expect_bits(r.best_vy.value(), vy, "best_vy");
  expect_bits(r.best_power.value(), power, "best_power");
  EXPECT_EQ(r.probes, probes);
  expect_bits(r.time_cost_s, time_cost_s, "time_cost_s");
}

/// Synthetic plant with one global optimum (no RNG state).
PowerProbe gaussian_peak(double vx_star, double vy_star, double width = 8.0) {
  return [=](Voltage vx, Voltage vy) {
    const double dx = vx.value() - vx_star;
    const double dy = vy.value() - vy_star;
    return PowerDbm{-30.0 - (dx * dx + dy * dy) / (width * width) * 10.0};
  };
}

/// The noisy links the paper-figure benches optimize.
core::SystemConfig link_config(const std::string& name) {
  if (name == "quickstart") return core::transmissive_mismatch_config();
  if (name == "fig16_30cm") return core::transmissive_mismatch_config(0.30);
  if (name == "fig17_2.47ghz") {
    core::SystemConfig cfg = core::transmissive_mismatch_config();
    cfg.frequency = common::Frequency::ghz(2.47);
    return cfg;
  }
  if (name == "fig18_omni_0.1mw" || name == "fig19_omni_lab_0.01mw") {
    const bool lab = name == "fig19_omni_lab_0.01mw";
    core::SystemConfig cfg = core::transmissive_mismatch_config(
        0.42, PowerDbm{10.0 * std::log10(lab ? 0.01 : 0.1)});
    if (lab) {
      common::Rng env_rng{42};
      cfg.environment = channel::Environment::laboratory(env_rng);
    }
    cfg.tx_antenna = channel::Antenna::omni_6dbi(common::Angle::degrees(0.0));
    cfg.rx_antenna = channel::Antenna::omni_6dbi(common::Angle::degrees(90.0));
    return cfg;
  }
  if (name == "fig22_36cm") return core::reflective_mismatch_config(0.36);
  ADD_FAILURE() << "unknown link " << name;
  return {};
}

struct LinkGolden {
  const char* name;
  double best_vx;
  double best_vy;
  double best_power;
  double baseline;
  double improvement;
  int probes;
  double time_cost_s;
  std::uint64_t trace;
  double follow_up_dbm;
};

constexpr LinkGolden kLinks[] = {
    {"quickstart", 0x1.3333333333333p+1, 0x1.9333333333333p+4,
     -0x1.4b0ebb3c352bep+4, -0x1.3e1a0a50cdce3p+5, 0x1.3125596566708p+4, 50,
     0x1.0000000000002p+0, 0x5cc72bc06fbba326ULL, -0x1.4b0eb83f3899p+4},
    {"fig16_30cm", 0x1.3333333333333p+1, 0x1.9333333333333p+4,
     -0x1.1c4bec1ba0b1ap+4, -0x1.26b8a4bb4015ep+5, 0x1.31255d5adf7a2p+4, 50,
     0x1.0000000000002p+0, 0x69ea2edc77c0aef1ULL, -0x1.1c4be9f935e5ep+4},
    {"fig17_2.47ghz", 0x1.3333333333333p+1, 0x1.a666666666666p+4,
     -0x1.4c13e79c395e8p+4, -0x1.43b9750a24c64p+5, 0x1.3b5f0278102ep+4, 50,
     0x1.0000000000002p+0, 0xeb4fe2a16fbb5298ULL, -0x1.4c13e4a03b1a8p+4},
    {"fig18_omni_0.1mw", 0x1.3333333333333p+1, 0x1.9333333333333p+4,
     -0x1.35875ec0a70bdp+5, -0x1.ce19d0a7dfdf8p+5, 0x1.3124e3ce71a76p+4, 50,
     0x1.0000000000002p+0, 0xda9bbf6e3cfbaf00ULL, -0x1.358752e227069p+5},
    {"fig19_omni_lab_0.01mw", 0x1.3333333333333p+1, 0x1.2p+4,
     -0x1.6c628dba4ed9bp+5, -0x1.beda94f186c33p+5, 0x1.49e01cdcdfa6p+3, 50,
     0x1.0000000000002p+0, 0xa26cd99f19b1447ULL, -0x1.721ea153e3396p+5},
    {"fig22_36cm", 0x1.ep+4, 0x1.ep+4, -0x1.35f0a1c480024p+5,
     -0x1.4ce2504c55644p+5, 0x1.6f1ae87d562p+1, 50, 0x1.0000000000002p+0,
     0xf23aab0914fc972bULL, -0x1.35f09aea51dddp+5},
};

TEST(SweepGolden, OptimizeLinkReportsAndRngPosition) {
  for (const LinkGolden& g : kLinks) {
    SCOPED_TRACE(g.name);
    core::LlamaSystem sys{link_config(g.name)};
    const OptimizationReport r = sys.optimize_link();
    expect_sweep(r.sweep, g.best_vx, g.best_vy, g.best_power, g.probes,
                 g.time_cost_s);
    expect_bits(r.baseline.value(), g.baseline, "baseline");
    expect_bits(r.improvement.value(), g.improvement, "improvement");
    expect_bits(sys.measure_with_surface().value(), g.follow_up_dbm,
                "follow-up measure_with_surface");
    // The Algorithm-1 trace of the same round, replayed on a twin system
    // exactly as Controller::optimize drives it: one baseline read at the
    // controller's initial (0, 0) V, then the sweep through the
    // surface-programming probe.
    core::LlamaSystem twin{link_config(g.name)};
    const PowerProbe probe = twin.make_probe();
    (void)probe(Voltage{0.0}, Voltage{0.0});
    CoarseToFineSweep sweep{twin.supply(), twin.config().controller.sweep};
    const SweepResult replay = sweep.run(grid_of(probe));
    expect_sweep(replay, g.best_vx, g.best_vy, g.best_power, g.probes,
                 g.time_cost_s);
    EXPECT_EQ(trace_hash(sweep.trace()), g.trace)
        << "got 0x" << std::hex << trace_hash(sweep.trace());
  }
}

TEST(SweepGolden, FullGridSweepOnSyntheticPlant) {
  PowerSupply psu;
  FullGridSweep::Options opt;
  opt.step = Voltage{1.5};
  FullGridSweep sweep{psu, opt};
  const SweepResult r = sweep.run(grid_of(gaussian_peak(18.3, 6.7)));
  expect_sweep(r, 0x1.2p+4, 0x1.8p+2, -0x1.e173333333333p+4, 441,
               0x1.1a3d70a3d706cp+3);
  EXPECT_EQ(grid_hash(sweep), 0x38cda1c728cfee8eULL)
      << "got 0x" << std::hex << grid_hash(sweep);
}

TEST(SweepGolden, CoarseToFineSweepOnSyntheticPlant) {
  PowerSupply psu;
  CoarseToFineSweep sweep{psu, {}};
  const SweepResult r = sweep.run(grid_of(gaussian_peak(22.5, 9.0)));
  expect_sweep(r, 0x1.6cccccccccccdp+4, 0x1.8p+2, -0x1.f6b999999999ap+4, 50,
               0x1.0000000000002p+0);
  EXPECT_EQ(trace_hash(sweep.trace()), 0x147fdec53cf9c073ULL)
      << "got 0x" << std::hex << trace_hash(sweep.trace());
}

TEST(SweepGolden, RandomSearchOnSyntheticPlant) {
  PowerSupply psu;
  RandomSearch search{psu, {}, common::Rng{42}};
  const SweepResult r = search.run(gaussian_peak(11.0, 27.0));
  expect_sweep(r, 0x1.7bb0997e7a14bp+3, 0x1.bf887cdce5bbfp+4,
               -0x1.e43a66e1891f9p+4, 50, 0x1.0000000000002p+0);
}

TEST(SweepGolden, AblationRandomSearchOnTheMismatchLink) {
  // bench_paper's search-ablation random-search row: 50 noise-free
  // expected-power probes on the quickstart link, one 1x1 window each.
  core::LlamaSystem sys{core::transmissive_mismatch_config()};
  const GridPowerProbe grid = sys.make_grid_probe();
  PowerSupply psu;
  RandomSearch search{psu, {}, common::Rng{99}};
  const SweepResult r = search.run([&](Voltage vx, Voltage vy) {
    return grid({vx.value()}, {vy.value()})[0][0];
  });
  expect_sweep(r, 0x1.03a84cfefb2b5p+1, 0x1.d98acc5f9ee87p+4,
               -0x1.4c075baa3973p+4, 50, 0x1.0000000000002p+0);
}

std::uint64_t track_hash(const track::TrackReport& t) {
  Fnv f;
  f.add(static_cast<double>(t.ticks));
  f.add(static_cast<double>(t.retune_count));
  f.add(t.duration_s);
  f.add(t.outage_fraction);
  f.add(t.retune_airtime_s);
  f.add(t.mean_retune_latency_s);
  f.add(t.mean_power_dbm);
  f.add(t.min_power_dbm);
  f.add(t.mean_delivered_mbps);
  for (const track::TrackTrace& tick : t.trace) {
    f.add(tick.power.value());
    f.add(static_cast<double>(tick.probes));
    f.add(tick.retune_airtime_s);
    f.add(tick.duty);
    f.add(tick.delivered_mbps);
  }
  return f.h;
}

TEST(SweepGolden, HysteresisResweepOnASwingingWearable) {
  core::SystemConfig cfg = core::transmissive_mismatch_config(0.42);
  cfg.tx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  cfg.rx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(45.0));
  channel::ArmSwing::Params swing;
  swing.mean = common::Angle::degrees(45.0);
  swing.amplitude = common::Angle::degrees(35.0);
  swing.swing_rate_hz = 0.5;
  core::LlamaSystem system{cfg};
  channel::ArmSwing arm{swing};
  track::HysteresisResweep policy;
  track::TrackingLoop loop{system, arm, policy};
  const std::uint64_t h = track_hash(loop.run(25));
  EXPECT_EQ(h, 0xd69ff7aa902be9a6ULL) << "got 0x" << std::hex << h;
}

}  // namespace
}  // namespace llama::control
