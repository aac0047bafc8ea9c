#include "bench/paper_ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/channel/ber.h"
#include "src/channel/mobility.h"
#include "src/channel/propagation.h"
#include "src/channel/propagation_scene.h"
#include "src/common/math_utils.h"
#include "src/control/search.h"
#include "src/core/scenarios.h"
#include "src/metasurface/designs.h"
#include "src/metasurface/metasurface.h"
#include "src/microwave/substrate.h"
#include "src/radio/devices.h"
#include "src/sensing/respiration_detector.h"

namespace llama::bench {
namespace {

/// Fig. 2's RSSI PDFs of one link, matched vs mismatched, as a table
/// appended to `out`; returns the match - mismatch mean delta (dB).
double mismatch_case(const char* title, const radio::DeviceProfile& tx_dev,
                     const radio::DeviceProfile& rx_dev, double distance_m,
                     double hist_lo, double hist_hi, FigureResult& out) {
  const auto f0 = common::Frequency::ghz(2.44);
  common::Table table{title};
  table.set_columns({"rssi_dbm", "match_pdf_pct", "mismatch_pdf_pct"});
  std::vector<double> match_samples;
  std::vector<double> mismatch_samples;
  for (int mismatched = 0; mismatched <= 1; ++mismatched) {
    channel::LinkGeometry g;
    g.tx_rx_distance_m = distance_m;
    g.tx_surface_distance_m = distance_m / 2.0;
    const auto rx_angle = common::Angle::degrees(mismatched != 0 ? 90.0 : 0.0);
    const channel::PropagationScene link =
        channel::PropagationScene::single_link(
            channel::Antenna::iot_dipole(common::Angle::degrees(0.0)),
            channel::Antenna::iot_dipole(rx_angle), g,
            channel::Environment::absorber_chamber());
    const common::PowerDbm rx_power =
        link.received_power_without_surface(tx_dev.tx_power, f0);
    radio::RssiReporter reporter{rx_dev,
                                 common::Rng{17u + (mismatched != 0 ? 1 : 0)}};
    auto& bucket = mismatched != 0 ? mismatch_samples : match_samples;
    bucket = reporter.collect(rx_power, 3000);
  }
  const auto h_match = common::histogram(match_samples, hist_lo, hist_hi, 24);
  const auto h_mis = common::histogram(mismatch_samples, hist_lo, hist_hi, 24);
  for (std::size_t i = 0; i < h_match.bin_centers.size(); ++i)
    table.add_row(
        {h_match.bin_centers[i], h_match.pdf_percent[i], h_mis.pdf_percent[i]});
  table.add_note("match mean = " +
                 std::to_string(common::mean(match_samples)) + " dBm");
  table.add_note("mismatch mean = " +
                 std::to_string(common::mean(mismatch_samples)) + " dBm");
  out.tables.push_back(std::move(table));
  return common::mean(match_samples) - common::mean(mismatch_samples);
}

FigureResult fig02() {
  FigureResult out;
  out.quantities["wifi_delta_db"] = mismatch_case(
      "Fig. 2(a): Wi-Fi RSSI PDF, ESP8266 <-> 802.11g AP",
      radio::DeviceProfile::wifi_ap(), radio::DeviceProfile::esp8266(), 2.2,
      -50.0, -20.0, out);
  out.quantities["ble_delta_db"] = mismatch_case(
      "Fig. 2(b): BLE RSSI PDF, MetaMotionR <-> Raspberry Pi 3",
      radio::DeviceProfile::ble_wearable(),
      radio::DeviceProfile::raspberry_pi(), 4.5, -80.0, -50.0, out);
  return out;
}

struct EfficiencySweep {
  common::Table table;
  double peak_db = -1e9;
  double band_lo_ghz = 0.0;  // >-5 dB band edges; 0 when there is none
  double band_hi_ghz = 0.0;
};

/// Both excitations over 2.0-2.8 GHz at a fixed mid-sweep bias.
EfficiencySweep efficiency_sweep(const char* title,
                                 const metasurface::RotatorStack& stack) {
  EfficiencySweep s{common::Table{title}};
  s.table.set_columns({"freq_ghz", "x_eff_db", "y_eff_db"});
  const common::Voltage v{5.0};
  for (double ghz = 2.0; ghz <= 2.8001; ghz += 0.02) {
    const auto f = common::Frequency::ghz(ghz);
    const double x = stack.transmission_efficiency_db(f, v, v, false);
    const double y = stack.transmission_efficiency_db(f, v, v, true);
    s.table.add_row({ghz, x, y});
    s.peak_db = std::max(s.peak_db, x);
    if (x > -5.0) {
      if (s.band_lo_ghz == 0.0) s.band_lo_ghz = ghz;
      s.band_hi_ghz = ghz;
    }
  }
  s.table.add_note("peak x-efficiency = " + std::to_string(s.peak_db) + " dB");
  s.table.add_note(
      ">-5 dB band = " +
      std::to_string((s.band_hi_ghz - s.band_lo_ghz) * 1000.0) + " MHz");
  return s;
}

FigureResult fig08() {
  EfficiencySweep s =
      efficiency_sweep("Fig. 8: S21 efficiency, Rogers 5880 reference design",
                       metasurface::reference_rogers_design());
  return {.tables = {s.table},
          .quantities = {{"peak_eff_db", s.peak_db},
                         {"band_center_ghz",
                          (s.band_lo_ghz + s.band_hi_ghz) / 2.0}}};
}

FigureResult fig09() {
  EfficiencySweep s = efficiency_sweep(
      "Fig. 9: S21 efficiency, naive FR4 transplant",
      metasurface::naive_fr4_design());
  return {.tables = {s.table}, .quantities = {{"peak_eff_db", s.peak_db}}};
}

FigureResult fig10() {
  EfficiencySweep s = efficiency_sweep(
      "Fig. 10: S21 efficiency, optimized FR4 design",
      metasurface::optimized_fr4_design());
  return {.tables = {s.table},
          .quantities = {{"peak_eff_db", s.peak_db},
                         {"band_mhz",
                          (s.band_hi_ghz - s.band_lo_ghz) * 1000.0}}};
}

FigureResult fig11() {
  const metasurface::RotatorStack stack = metasurface::optimized_fr4_design();
  common::Table table{"Fig. 11: S21 efficiency vs frequency per Vy (Vx=5V)"};
  table.set_columns({"freq_ghz", "Vy=2", "Vy=3", "Vy=4", "Vy=5", "Vy=6",
                     "Vy=10", "Vy=15"});
  const double vys[] = {2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0};
  double worst_in_band = 0.0;
  for (double ghz = 2.0; ghz <= 2.8001; ghz += 0.05) {
    std::vector<double> row{ghz};
    for (double vy : vys) {
      const double eff = stack.transmission_efficiency_db(
          common::Frequency::ghz(ghz), common::Voltage{5.0},
          common::Voltage{vy}, false);
      row.push_back(eff);
      if (ghz >= 2.4 && ghz <= 2.5)
        worst_in_band = std::min(worst_in_band, eff);
    }
    table.add_row(std::move(row));
  }
  return {.tables = {table},
          .quantities = {{"worst_in_band_eff_db", worst_in_band}}};
}

FigureResult fig12() {
  FigureResult out;
  {  // (a) power vs orientation difference, no surface
    core::LlamaSystem sys{core::transmissive_match_config()};
    common::Table table{
        "Fig. 12(a): Rx power vs Tx-Rx orientation difference, no surface"};
    table.set_columns({"orientation_deg", "power_dbm", "power_uw"});
    std::vector<double> dbm;
    for (double deg = 0.0; deg <= 180.0; deg += 10.0) {
      sys.link().set_rx_antenna(
          sys.link().rx_antenna().oriented(common::Angle::degrees(deg)));
      const double p = sys.measure_without_surface(0.05).value();
      table.add_row({deg, p, std::pow(10.0, p / 10.0) * 1e3});
      dbm.push_back(p);
    }
    out.tables.push_back(std::move(table));
    out.quantities["null_orientation_deg"] =
        10.0 * static_cast<double>(std::min_element(dbm.begin(), dbm.end()) -
                                   dbm.begin());
    out.quantities["recovery_at_180_db"] = dbm.back() - dbm.front();
  }
  {  // (b) power across the bias sweep in a matched setup
    core::LlamaSystem sys{core::transmissive_match_config()};
    common::Table table{
        "Fig. 12(b): Rx power across bias sweep, matched setup"};
    table.set_columns({"vx_v", "vy_v", "power_dbm"});
    auto probe = sys.make_probe(0.02);
    for (double v = 0.0; v <= 30.0; v += 6.0)
      for (double w = 0.0; w <= 30.0; w += 6.0)
        table.add_row(
            {v, w, probe(common::Voltage{v}, common::Voltage{w}).value()});
    out.tables.push_back(std::move(table));
  }
  {  // (c-d) the three-step min/max rotation estimation
    core::LlamaSystem sys{core::transmissive_match_config()};
    control::RotationEstimator::Options opt;
    opt.orientation_step_deg = 2.0;
    opt.v_step = common::Voltage{3.0};
    // Sweep from the datasheet-characterized junction region (>= 2 V ideal
    // bias, i.e. 4 V on the fabrication-derated prototype).
    opt.v_min = common::Voltage{4.0};
    const auto est = sys.estimate_rotation(opt);
    common::Table table{"Fig. 12(c): estimated min/max rotation angles"};
    table.set_columns({"min_rotation_deg", "max_rotation_deg"});
    table.add_row({est.min_rotation.deg(), est.max_rotation.deg()});
    table.add_note("theta0 = " + std::to_string(est.theta0.deg()) + " deg");
    out.tables.push_back(std::move(table));
    out.quantities["min_rotation_deg"] = est.min_rotation.deg();
    out.quantities["max_rotation_deg"] = est.max_rotation.deg();
  }
  return out;
}

FigureResult fig15() {
  std::ostringstream heatmaps;
  common::Table rotation{"Fig. 15(h): rotation degree vs Tx-Rx distance"};
  rotation.set_columns({"dist_cm", "min_rot_deg", "max_rot_deg"});
  double contrast_24cm = 0.0;
  double min_rotation = std::numeric_limits<double>::infinity();
  double max_rotation = -std::numeric_limits<double>::infinity();
  for (double cm = 24.0; cm <= 60.0; cm += 6.0) {
    core::LlamaSystem sys{core::transmissive_mismatch_config(cm / 100.0)};
    control::PowerSupply supply;
    control::FullGridSweep::Options opt;
    opt.step = common::Voltage{3.0};
    control::FullGridSweep sweep{supply, opt};
    (void)sweep.run(sys.make_grid_probe());
    common::print_ascii_heatmap(
        heatmaps,
        "Fig. 15: received power heatmap (dBm), Tx-Rx = " +
            std::to_string(static_cast<int>(cm)) + " cm (rows Vy, cols Vx)",
        sweep.vy_values(), sweep.vx_values(), sweep.grid_dbm());
    if (cm == 24.0) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const auto& row : sweep.grid_dbm())
        for (double v : row) {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      contrast_24cm = hi - lo;
    }

    // Rotation estimation per distance (paper Section 3.4 procedure) on the
    // matched variant of the same geometry. The estimator's probes revisit
    // bias cells, so the response cache carries most of the load.
    core::LlamaSystem est_sys{core::transmissive_match_config(cm / 100.0)};
    est_sys.enable_fast_probes();
    control::RotationEstimator::Options ropt;
    ropt.orientation_step_deg = 3.0;
    ropt.v_step = common::Voltage{5.0};
    // Start at the datasheet-characterized junction region (2 V ideal bias
    // = 4 V on the derated prototype).
    ropt.v_min = common::Voltage{4.0};
    const auto est = est_sys.estimate_rotation(ropt);
    rotation.add_row({cm, est.min_rotation.deg(), est.max_rotation.deg()});
    min_rotation = std::min(min_rotation, est.min_rotation.deg());
    max_rotation = std::max(max_rotation, est.max_rotation.deg());
  }
  return {.heatmaps = heatmaps.str(),
          .tables = {rotation},
          .quantities = {{"contrast_24cm_db", contrast_24cm},
                         {"min_rotation_deg", min_rotation},
                         {"max_rotation_deg", max_rotation}}};
}

FigureResult fig16() {
  common::Table table{
      "Fig. 16: received power with/without metasurface (mismatch)"};
  table.set_columns({"dist_cm", "with_dbm", "without_dbm", "gain_db",
                     "range_ext_x"});
  double best_gain = 0.0;
  for (double cm = 24.0; cm <= 60.0; cm += 6.0) {
    core::LlamaSystem sys{core::transmissive_mismatch_config(cm / 100.0)};
    (void)sys.optimize_link();
    const double with = sys.measure_with_surface(0.1).value();
    const double without = sys.measure_without_surface().value();
    const double gain = with - without;
    best_gain = std::max(best_gain, gain);
    table.add_row({cm, with, without, gain,
                   channel::friis_range_extension(common::GainDb{gain})});
  }
  return {.tables = {table},
          .quantities = {{"best_gain_db", best_gain},
                         {"best_range_ext_x",
                          channel::friis_range_extension(
                              common::GainDb{best_gain})}}};
}

FigureResult fig17() {
  common::Table table{"Fig. 17: power improvement vs operating frequency"};
  table.set_columns({"freq_ghz", "with_dbm", "without_dbm", "gain_db"});
  double worst = 1e9;
  for (double ghz = 2.40; ghz <= 2.5001; ghz += 0.01) {
    core::SystemConfig cfg = core::transmissive_mismatch_config();
    cfg.frequency = common::Frequency::ghz(ghz);
    core::LlamaSystem sys{cfg};
    (void)sys.optimize_link();
    const double with = sys.measure_with_surface(0.1).value();
    const double without = sys.measure_without_surface().value();
    table.add_row({ghz, with, without, with - without});
    worst = std::min(worst, with - without);
  }
  return {.tables = {table}, .quantities = {{"worst_gain_db", worst}}};
}

/// One capacity-vs-Tx-power table (Figs. 18, 19); returns the deltas
/// (with - without, bit/s/Hz) in `mws` order.
std::vector<double> capacity_case(const char* title, bool directional,
                                  std::span<const double> mws,
                                  bool laboratory, FigureResult& out) {
  common::Table table{title};
  table.set_columns({"tx_mw", "cap_with_bph", "cap_without_bph", "delta_bph"});
  std::vector<double> deltas;
  for (double mw : mws) {
    const double dbm = 10.0 * std::log10(mw);
    core::SystemConfig cfg =
        core::transmissive_mismatch_config(0.42, common::PowerDbm{dbm});
    if (laboratory) {
      common::Rng env_rng{42};
      cfg.environment = channel::Environment::laboratory(env_rng);
    }
    if (!directional) {
      cfg.tx_antenna =
          channel::Antenna::omni_6dbi(common::Angle::degrees(0.0));
      cfg.rx_antenna =
          channel::Antenna::omni_6dbi(common::Angle::degrees(90.0));
    }
    core::LlamaSystem sys{cfg};
    (void)sys.optimize_link();
    const double with = sys.capacity_with_surface();
    const double without = sys.capacity_without_surface();
    table.add_row({mw, with, without, with - without});
    deltas.push_back(with - without);
  }
  out.tables.push_back(std::move(table));
  return deltas;
}

constexpr double kCleanMws[] = {0.002, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0};
constexpr double kLabMws[] = {0.002, 0.01, 0.1,   1.0,
                              2.0,   10.0, 100.0, 1000.0};

FigureResult fig18() {
  FigureResult out;
  for (bool directional : {false, true}) {
    const std::vector<double> deltas = capacity_case(
        directional
            ? "Fig. 18(b): capacity vs Tx power, directional antennas, absorber"
            : "Fig. 18(a): capacity vs Tx power, omni antennas, absorber",
        directional, kCleanMws, false, out);
    out.tables.back().add_note(
        "capacities are Shannon bit/s/Hz; the paper's Mbps/Hz axis uses its "
        "own scaling — compare shapes and deltas, not absolute units");
    out.quantities[directional ? "dir_delta_2uw_bph" : "omni_delta_2uw_bph"] =
        deltas.front();
  }
  return out;
}

FigureResult fig19() {
  FigureResult out;
  const std::vector<double> omni = capacity_case(
      "Fig. 19(a): capacity vs Tx power, omni antennas, laboratory", false,
      kLabMws, true, out);
  // The crossover is the first power whose delta clears 0.05 bit/s/Hz.
  const auto gain = std::find_if(omni.begin(), omni.end(),
                                 [](double delta) { return delta > 0.05; });
  const double crossover_mw =
      gain == omni.end() ? -1.0 : kLabMws[gain - omni.begin()];
  const std::vector<double> dir = capacity_case(
      "Fig. 19(b): capacity vs Tx power, directional antennas, laboratory",
      true, kLabMws, true, out);
  out.quantities["omni_delta_2uw_bph"] = omni.front();
  out.quantities["omni_crossover_mw"] = crossover_mw;
  out.quantities["dir_max_delta_bph"] =
      *std::max_element(dir.begin(), dir.end());
  return out;
}

FigureResult fig20() {
  core::SystemConfig cfg =
      core::transmissive_mismatch_config(1.0, common::PowerDbm{14.0});
  cfg.tx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  cfg.rx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(90.0));
  core::LlamaSystem sys{cfg};
  (void)sys.optimize_link_batched();

  radio::RssiReporter reporter{radio::DeviceProfile::esp8266(),
                               common::Rng{23}};
  const auto with = reporter.collect(sys.measure_with_surface(0.1), 3000);
  const auto without = reporter.collect(sys.measure_without_surface(), 3000);
  const auto h_with = common::histogram(with, -50.0, -20.0, 24);
  const auto h_without = common::histogram(without, -50.0, -20.0, 24);

  common::Table table{
      "Fig. 20: ESP8266 RSSI PDF with/without metasurface (mismatch)"};
  table.set_columns({"rssi_dbm", "with_pdf_pct", "without_pdf_pct"});
  for (std::size_t i = 0; i < h_with.bin_centers.size(); ++i)
    table.add_row({h_with.bin_centers[i], h_with.pdf_percent[i],
                   h_without.pdf_percent[i]});
  return {.tables = {table},
          .quantities = {{"mean_shift_db",
                          common::mean(with) - common::mean(without)}}};
}

FigureResult fig21() {
  std::ostringstream heatmaps;
  common::Table contrast{
      "Fig. 21 summary: bias-induced power contrast per distance"};
  contrast.set_columns({"dist_cm", "max_dbm", "min_dbm", "contrast_db"});
  double max_contrast = 0.0;
  for (double cm = 24.0; cm <= 66.0; cm += 6.0) {
    core::LlamaSystem sys{core::reflective_mismatch_config(cm / 100.0)};
    control::PowerSupply supply;
    control::FullGridSweep::Options opt;
    opt.step = common::Voltage{3.0};
    control::FullGridSweep sweep{supply, opt};
    // The reflection plan's forward cascade is reused across the whole grid
    // (the reflective mode re-solves only the tunable boards' S11 per cell).
    (void)sweep.run(sys.make_grid_probe());
    common::print_ascii_heatmap(
        heatmaps,
        "Fig. 21: reflective power heatmap (dBm), Tx-surface = " +
            std::to_string(static_cast<int>(cm)) + " cm (rows Vy, cols Vx)",
        sweep.vy_values(), sweep.vx_values(), sweep.grid_dbm());
    double lo = 1e9;
    double hi = -1e9;
    for (const auto& row : sweep.grid_dbm())
      for (double v : row) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    contrast.add_row({cm, hi, lo, hi - lo});
    max_contrast = std::max(max_contrast, hi - lo);
  }
  return {.heatmaps = heatmaps.str(),
          .tables = {contrast},
          .quantities = {{"max_contrast_db", max_contrast}}};
}

FigureResult fig22() {
  common::Table table{
      "Fig. 22: reflective power & capacity with/without metasurface"};
  table.set_columns({"dist_cm", "with_dbm", "without_dbm", "gain_db",
                     "cap_with_bph", "cap_without_bph"});
  double best_gain = 0.0;
  double best_cap_delta = 0.0;
  for (double cm = 24.0; cm <= 66.0; cm += 6.0) {
    core::LlamaSystem sys{core::reflective_mismatch_config(cm / 100.0)};
    (void)sys.optimize_link();
    const double with = sys.measure_with_surface(0.1).value();
    const double without = sys.measure_without_surface().value();
    best_gain = std::max(best_gain, with - without);
    const double cap_with = sys.capacity_with_surface();
    const double cap_without = sys.capacity_without_surface();
    best_cap_delta = std::max(best_cap_delta, cap_with - cap_without);
    table.add_row({cm, with, without, with - without, cap_with, cap_without});
  }
  return {.tables = {table},
          .quantities = {{"best_gain_db", best_gain},
                         {"best_capacity_delta_bph", best_cap_delta}}};
}

FigureResult fig23() {
  const core::SensingScenario scenario = core::respiration_scenario();
  const double fs = 10.0;
  const auto with = core::simulate_respiration_trace(scenario, true, 60.0, fs);
  const auto without =
      core::simulate_respiration_trace(scenario, false, 60.0, fs);

  common::Table table{"Fig. 23: received power traces (60 s, 5 mW)"};
  table.set_columns({"time_s", "with_dbm", "without_dbm"});
  for (std::size_t i = 0; i < with.size(); i += 5)
    table.add_row({static_cast<double>(i) / fs, with[i], without[i]});

  sensing::RespirationDetector det;
  const auto r_with = det.analyze(with, fs);
  const auto r_without = det.analyze(without, fs);
  table.add_note("with surface: detected=" + std::to_string(r_with.detected) +
                 ", rate=" + std::to_string(r_with.rate_hz * 60.0) +
                 " breaths/min, " +
                 "confidence=" + std::to_string(r_with.confidence));
  table.add_note("without surface: detected=" +
                 std::to_string(r_without.detected));
  table.add_note("ground truth = 15 breaths/min");
  return {.tables = {table},
          .quantities = {
              {"with_rate_bpm", r_with.detected ? r_with.rate_hz * 60.0 : 0.0},
              {"without_detected", r_without.detected ? 1.0 : 0.0}}};
}

FigureResult table1() {
  // Table 1 reports the HFSS-style *simulation*, i.e. the ideal varactor
  // curve (the fabricated prototype needs double the bias; see Section 3.3).
  const metasurface::RotatorStack stack = metasurface::optimized_fr4_design();
  const auto f0 = common::Frequency::ghz(2.44);
  const double volts[] = {2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0};
  const double paper[7][7] = {
      {11.6, 26.1, 36.8, 41.0, 44.3, 48.3, 48.7},
      {6.5, 12.4, 26.6, 32.2, 35.2, 38.6, 39.2},
      {23.0, 4.9, 10.9, 17.3, 20.8, 25.0, 25.6},
      {27.0, 9.3, 7.4, 14.0, 18.0, 22.6, 23.2},
      {41.8, 25.0, 7.9, 2.1, 4.2, 10.2, 10.7},
      {45.8, 30.0, 13.7, 7.9, 2.8, 5.1, 5.6},
      {48.2, 33.1, 18.2, 12.9, 7.3, 1.9, 2.0},
  };
  common::Table table{
      "Table 1: simulated rotation degrees (rows Vy, cols Vx), measured"};
  table.set_columns({"Vy\\Vx", "2", "3", "4", "5", "6", "10", "15"});
  double min_rot = 1e9;
  double max_rot = 0.0;
  for (double vy : volts) {
    std::vector<double> row{vy};
    for (double vx : volts) {
      const double r = std::abs(
          stack.rotation_angle(f0, common::Voltage{vx}, common::Voltage{vy})
              .deg());
      row.push_back(r);
      min_rot = std::min(min_rot, r);
      max_rot = std::max(max_rot, r);
    }
    table.add_row(std::move(row));
  }
  common::Table ref{"Table 1 (paper values, for shape comparison)"};
  ref.set_columns({"Vy\\Vx", "2", "3", "4", "5", "6", "10", "15"});
  for (int r = 0; r < 7; ++r) {
    std::vector<double> row{volts[r]};
    for (int c = 0; c < 7; ++c) row.push_back(paper[r][c]);
    ref.add_row(std::move(row));
  }
  return {.tables = {table, ref},
          .quantities = {{"min_rotation_deg", min_rot},
                         {"max_rotation_deg", max_rot}}};
}

FigureResult rfid900() {
  // Section 3.2: the rotator scaled to the 900 MHz RFID band.
  const metasurface::RotatorStack stack = metasurface::rfid_900mhz_design();
  common::Table eff{"900 MHz design: S21 efficiency sweep"};
  eff.set_columns({"freq_mhz", "x_eff_db", "y_eff_db"});
  const common::Voltage v{5.0};
  double best = -1e9;
  for (double mhz = 750.0; mhz <= 1080.0; mhz += 15.0) {
    const auto f = common::Frequency::mhz(mhz);
    const double x = stack.transmission_efficiency_db(f, v, v, false);
    const double y = stack.transmission_efficiency_db(f, v, v, true);
    eff.add_row({mhz, x, y});
    best = std::max(best, x);
  }
  common::Table rot{"900 MHz design: rotation vs bias at 915 MHz"};
  rot.set_columns({"Vy\\Vx", "2", "5", "10", "15"});
  const auto f0 = common::Frequency::mhz(915.0);
  double max_rot = 0.0;
  for (double vy : {2.0, 5.0, 10.0, 15.0}) {
    std::vector<double> row{vy};
    for (double vx : {2.0, 5.0, 10.0, 15.0}) {
      row.push_back(std::abs(
          stack.rotation_angle(f0, common::Voltage{vx}, common::Voltage{vy})
              .deg()));
      max_rot = std::max(max_rot, row.back());
    }
    rot.add_row(std::move(row));
  }
  return {.tables = {eff, rot},
          .quantities = {{"peak_eff_db", best}, {"max_rotation_deg", max_rot}}};
}

FigureResult ablation_search() {
  // Algorithm 1 against random search, hill climbing and simulated
  // annealing on the simulated bias landscape, at one 50-probe budget.
  common::Table table{
      "Search ablation: best power found at a 50-probe budget (42 cm link)"};
  table.set_columns({"algo_id", "probes", "time_s", "best_dbm"});
  table.add_note("algo 1 = Algorithm 1 (N=2,T=5); 2 = random; "
                 "3 = hill climb; 4 = simulated annealing");
  table.add_note("measurement models differ: 1-2 use the batched "
                 "expected-power probe (noise-free); 3-4 sample IQ windows "
                 "with interference (cached responses)");
  double lo = 1e9;
  double hi = -1e9;
  const auto add = [&](double id, const control::SweepResult& r) {
    table.add_row({id, static_cast<double>(r.probes), r.time_cost_s,
                   r.best_power.value()});
    lo = std::min(lo, r.best_power.value());
    hi = std::max(hi, r.best_power.value());
  };
  {  // Algorithm 1: each iteration's TxT window is one grid-probe call
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    control::PowerSupply psu;
    add(1.0, control::CoarseToFineSweep{psu, {}}.run(sys.make_grid_probe()));
  }
  {  // random search: the same expected-power probe, one 1x1 window a draw
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    const control::GridPowerProbe grid = sys.make_grid_probe();
    control::PowerSupply psu;
    add(2.0, control::RandomSearch{psu, {}, common::Rng{99}}.run(
                 [&](common::Voltage vx, common::Voltage vy) {
                   return grid({vx.value()}, {vy.value()})[0][0];
                 }));
  }
  {  // hill climb: inherently sequential; rides the response cache
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    sys.enable_fast_probes();
    control::PowerSupply psu;
    add(3.0, control::HillClimb{psu, {}}.run(sys.make_probe(0.01)));
  }
  {  // simulated annealing: sequential as well, cached point probes
    core::LlamaSystem sys{core::transmissive_mismatch_config()};
    sys.enable_fast_probes();
    control::PowerSupply psu;
    add(4.0, control::SimulatedAnnealing{psu, {}, common::Rng{7}}.run(
                 sys.make_probe(0.01)));
  }
  return {.tables = {table}, .quantities = {{"best_dbm_spread_db", hi - lo}}};
}

double in_band_eff(const metasurface::RotatorStack& stack) {
  return stack.transmission_efficiency_db(common::Frequency::ghz(2.44),
                                          common::Voltage{5.0},
                                          common::Voltage{5.0}, false);
}

FigureResult ablation_substrate() {
  // The cost/performance trade space behind Figs. 8-10: substrate,
  // thickness, pattern capacitance (resonator Q) and the bill of materials.
  common::Table thick{"Ablation: board thickness on FR4 (in-band S21)"};
  thick.set_columns({"thickness_mm", "x_eff_db"});
  std::vector<double> effs;
  for (double mm : {0.4, 0.8, 1.6, 3.2}) {
    metasurface::DesignParams p;
    p.board_thickness_m = mm * 1e-3;
    effs.push_back(in_band_eff(metasurface::optimized_fr4_design(p)));
    thick.add_row({mm, effs.back()});
  }

  common::Table tank{
      "Ablation: QWP tank capacitance (pattern Q) on FR4 (in-band S21)"};
  tank.set_columns({"tank_c_pf", "x_eff_db"});
  for (double pf : {0.15, 0.3, 0.6, 1.2, 2.5}) {
    metasurface::DesignParams p;
    p.qwp_tank_c_f = pf * 1e-12;
    tank.add_row({pf, in_band_eff(metasurface::optimized_fr4_design(p))});
  }
  tank.add_note(
      "larger resonant stored energy multiplies tan-delta dissipation — "
      "the mechanism that sinks the naive FR4 transplant");

  const auto rogers = microwave::Substrate::rogers5880();
  const auto fr4 = microwave::Substrate::fr4();
  common::Table cost_table{"Ablation: substrate cost vs loss"};
  cost_table.set_columns({"loss_tangent", "cost_usd_m2", "atten_db_mm"});
  for (const auto* s : {&rogers, &fr4})
    cost_table.add_row(
        {s->loss_tangent(), s->cost_usd_per_m2(),
         s->attenuation_db_per_mm(common::Frequency::ghz(2.44))});
  const auto cost = metasurface::Metasurface::llama_prototype().cost();
  return {.tables = {thick, tank, cost_table},
          .quantities = {{"thin_over_thick_db", effs.front() - effs.back()},
                         {"bom_total_usd", cost.total_usd},
                         {"bom_per_unit_usd", cost.per_unit_usd}}};
}

FigureResult alg1_sweep() {
  // Algorithm 1's (N, T) against the exhaustive 1 V scan on the simulated
  // plant; search time is 0.02 s x probes of supply switching.
  common::Table table{"Algorithm 1: sweep-parameter ablation (42 cm link)"};
  table.set_columns({"iters_N", "steps_T", "probes", "time_s", "best_dbm",
                     "gap_to_full_db"});
  // Reference: the exhaustive 1 V grid (961 probes in one grid call).
  core::LlamaSystem ref_sys{core::transmissive_mismatch_config()};
  control::PowerSupply ref_supply;
  control::FullGridSweep full{ref_supply, {}};
  const auto full_result = full.run(ref_sys.make_grid_probe());
  FigureResult out;
  for (int n : {1, 2, 3}) {
    for (int t : {3, 5, 8}) {
      core::LlamaSystem sys{core::transmissive_mismatch_config()};
      control::PowerSupply supply;
      control::CoarseToFineSweep::Options opt;
      opt.iterations = n;
      opt.steps_per_axis = t;
      control::CoarseToFineSweep sweep{supply, opt};
      const auto r = sweep.run(sys.make_grid_probe());
      const double gap = full_result.best_power.value() - r.best_power.value();
      table.add_row({static_cast<double>(n), static_cast<double>(t),
                     static_cast<double>(r.probes), r.time_cost_s,
                     r.best_power.value(), gap});
      if (n == 2 && t == 5) out.quantities["n2t5_time_s"] = r.time_cost_s;
    }
  }
  table.add_note("full 1 V-step scan: " + std::to_string(full_result.probes) +
                 " probes, " + std::to_string(full_result.time_cost_s) +
                 " s switching, best = " +
                 std::to_string(full_result.best_power.value()) + " dBm");
  out.tables.push_back(std::move(table));
  out.quantities["full_scan_time_s"] = full_result.time_cost_s;
  return out;
}

FigureResult dense_iot() {
  // Section 7 outlook: one surface time-shared by six IoT devices at
  // different orientations, all Algorithm-1 runs on the DeploymentEngine.
  const core::DenseDeploymentScenario scenario =
      core::dense_deployment_scenario(6, 1);
  deploy::DeploymentEngine engine{scenario.config};
  const deploy::DeploymentReport report = engine.run(scenario.devices);
  const auto wifi = channel::LinkLayerModel::wifi_80211g();
  // Busy-building noise+interference level: keeps SNRs rate-sensitive.
  const common::PowerDbm noise{-62.0};

  common::Table table{"Dense IoT: per-device power & throughput"};
  table.set_columns({"orient_deg", "raw_dbm", "opt_dbm", "sched_dbm",
                     "tput_raw_mbps", "tput_sched_mbps"});
  double total_raw = 0.0;
  double total_sched = 0.0;
  std::size_t total_slots = 0;
  for (const deploy::SurfaceReport& sr : report.surfaces) {
    total_slots += sr.slots.size();
    for (std::size_t k = 0; k < sr.device_ids.size(); ++k) {
      const deploy::DeviceResult& d = report.devices[sr.device_ids[k]];
      const double t_raw = wifi.throughput_mbps(d.unoptimized_power - noise);
      const double t_sched =
          wifi.throughput_mbps(sr.scheduled_power[k] - noise);
      total_raw += t_raw;
      total_sched += t_sched;
      table.add_row({scenario.devices[sr.device_ids[k]].orientation.deg(),
                     d.unoptimized_power.value(), d.optimized_power.value(),
                     sr.scheduled_power[k].value(), t_raw, t_sched});
    }
  }
  table.add_note("slots = " + std::to_string(total_slots) +
                 " (devices with compatible bias optima share airtime)");
  table.add_note("network throughput: " + std::to_string(total_raw) + " -> " +
                 std::to_string(total_sched) +
                 " Mbps with polarization scheduling");
  // The hit/miss split depends on which worker reaches a shared response
  // first (SharedResponseEngine serves the same values either way), so it
  // is a note and not a ledger quantity.
  table.add_note("shared engine: " + std::to_string(report.plan_count) +
                 " plans, " + std::to_string(report.cache_stats.hits) +
                 " cache hits / " + std::to_string(report.cache_stats.misses) +
                 " misses");
  return {.tables = {table},
          .quantities = {{"slots", static_cast<double>(total_slots)},
                         {"throughput_gain_mbps", total_sched - total_raw}}};
}

FigureResult wearable_tracking() {
  // Fig. 1's motivation: a wearable whose antenna swings with the arm; the
  // controller's hysteresis loop re-sweeps when the link degrades.
  core::SystemConfig cfg =
      core::transmissive_mismatch_config(1.5, common::PowerDbm{0.0});
  cfg.rx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(45.0));
  cfg.tx_antenna = channel::Antenna::iot_dipole(common::Angle::degrees(0.0));
  channel::ArmSwing::Params swing;
  swing.mean = common::Angle::degrees(45.0);
  swing.amplitude = common::Angle::degrees(40.0);
  swing.swing_rate_hz = 0.15;  // slow posture changes; sweeps take ~1 s
  channel::ArmSwing arm{swing};

  core::LlamaSystem tracked{cfg};
  core::LlamaSystem frozen{cfg};
  core::LlamaSystem bare{cfg};
  control::Controller tracker{tracked.surface(), tracked.supply()};
  (void)frozen.optimize_link();  // one-shot optimization, then frozen

  common::Table table{"Wearable tracking: link power vs time (arm swing)"};
  table.set_columns({"time_s", "orient_deg", "tracked_dbm", "frozen_dbm",
                     "no_surface_dbm", "resweeps"});
  int resweeps = 0;
  double tracked_over_frozen = 0.0;  // summed per row, averaged below
  double frozen_over_bare = 0.0;
  for (double t = 0.0; t <= 20.0; t += 0.5) {
    const common::Angle o = arm.orientation_at(t);
    for (core::LlamaSystem* sys : {&tracked, &frozen, &bare})
      sys->link().set_rx_antenna(channel::Antenna::iot_dipole(o));
    const auto report = tracked.measure_with_surface(0.02);
    if (tracker.on_power_report(report, tracked.make_probe()).has_value())
      ++resweeps;
    const double p_tracked = tracked.measure_with_surface(0.02).value();
    const double p_frozen = frozen.measure_with_surface(0.02).value();
    const double p_bare = bare.measure_without_surface(0.05).value();
    table.add_row({t, o.deg(), p_tracked, p_frozen, p_bare,
                   static_cast<double>(resweeps)});
    tracked_over_frozen += p_tracked - p_frozen;
    frozen_over_bare += p_frozen - p_bare;
  }
  table.add_note("resweeps fire on deep fades (controller hysteresis = 3 dB)");
  const double n = static_cast<double>(table.rows());
  return {.tables = {table},
          .quantities = {{"tracked_over_frozen_db", tracked_over_frozen / n},
                         {"frozen_over_bare_db", frozen_over_bare / n}}};
}

constexpr Figure kFigures[] = {
    {"fig02", fig02}, {"fig08", fig08}, {"fig09", fig09}, {"fig10", fig10},
    {"fig11", fig11}, {"fig12", fig12}, {"fig15", fig15}, {"fig16", fig16},
    {"fig17", fig17}, {"fig18", fig18}, {"fig19", fig19}, {"fig20", fig20},
    {"fig21", fig21}, {"fig22", fig22}, {"fig23", fig23}, {"table1", table1},
    {"rfid900", rfid900}, {"ablation_search", ablation_search},
    {"ablation_substrate", ablation_substrate}, {"alg1_sweep", alg1_sweep},
    {"dense_iot", dense_iot}, {"wearable_tracking", wearable_tracking}};

constexpr double kInf = std::numeric_limits<double>::infinity();
/// fig15's 24 cm bias contrast, which fig21's claim is stated against.
constexpr double kFig15Contrast24Db = 19.06;

// Capacity rows compare Shannon deltas in bit/s/Hz, after Fig. 18's units
// note; a row says so wherever the paper's own scaling matters.
constexpr LedgerRow kLedger[] = {
    {"fig02", "wifi_delta_db", "Wi-Fi mismatch: ~10 dB", 8, 12, 14.09, 0.01,
     "the modelled IoT dipole's cross-polar leakage alone sets the mismatch "
     "loss: both links lose 14.1 dB (fig20 sees it too)"},
    {"fig02", "ble_delta_db", "BLE mismatch: ~10 dB", 8, 12, 14.09, 0.01,
     "as wifi_delta_db: one dipole model sets both deltas"},
    {"fig08", "peak_eff_db", "best; marked at -3 dB", -3, 0, -4.22, 0.01,
     "the modelled stack peaks 1.2 dB under the mark; it is still the best "
     "of the three designs"},
    {"fig08", "band_center_ghz", "band centered near 2.45 GHz", 2.4, 2.5, 2.45,
     0.001, ""},
    {"fig09", "peak_eff_db", "several dB below Rogers (fig08: -4.22 dB)", -kInf,
     -6.22, -8.53, 0.01, ""},
    {"fig10", "peak_eff_db", "comparable to Rogers (fig08: -4.22 dB)", -5.72,
     -2.72, -4.39, 0.01, ""},
    {"fig10", "band_mhz", "> 150 MHz above -5 dB", 150, kInf, 240, 0.5, ""},
    {"fig11", "worst_in_band_eff_db", "above -8 dB in 2.4-2.5 GHz at any bias",
     -8, 0, -5.92, 0.01, ""},
    {"fig12", "null_orientation_deg", "power falls toward orthogonal", 80, 100,
     90, 0.001, ""},
    {"fig12", "recovery_at_180_db", "power recovers toward 180 deg", -1, 1, 0,
     0.01, ""},
    {"fig12", "min_rotation_deg", "min rotation ~4.8 deg", 4, 6, 2.0, 0.001,
     "the model's smallest rotation is 0.45 deg (table1), so the estimate "
     "lands on its first 2 deg orientation step"},
    {"fig12", "max_rotation_deg", "max rotation ~45.1 deg", 43, 47, 50.0, 0.001,
     "the model over-rotates at opposite-extreme biases (table1: 52.7 deg); "
     "the estimate lands on the 2 deg step at 50 deg"},
    {"fig15", "contrast_24cm_db", "strong bias dependence (fig21: far less)",
     10, kInf, kFig15Contrast24Db, 0.01, ""},
    {"fig15", "min_rotation_deg", "rotation from ~3 deg", 2, 4, 3.0, 0.001,
     ""},
    {"fig15", "max_rotation_deg", "rotation up to ~45 deg", 43, 47, 48.0,
     0.001,
     "the model over-rotates at opposite-extreme biases (table1: 52.7 deg); "
     "the estimate lands on the 3 deg step at 48 deg at every distance"},
    {"fig16", "best_gain_db", "up to 15 dB", 14, 16, 11.97, 0.01,
     "the best bias leaves the link 8.0 dB under the matched one (-20.7 vs "
     "-12.7 dBm at 42 cm), so 12 of the 20 dB mismatch loss come back; the "
     "full 1 V grid finds the same optimum"},
    {"fig16", "best_range_ext_x", "~5.6x Friis range", 5, 6.3, 3.97, 0.01,
     "follows from best_gain_db (range ~ 10^(gain/20))"},
    {"fig17", "worst_gain_db", "> 10 dB in band", 10, kInf, 11.88, 0.01, ""},
    {"fig18", "omni_delta_2uw_bph", "omni: gain even at 0.002 mW", 0, kInf,
     3.98, 0.01, ""},
    {"fig18", "dir_delta_2uw_bph", "directional: gain even at 0.002 mW", 0,
     kInf, 3.98, 0.01, ""},
    {"fig19", "omni_delta_2uw_bph", "omni: a loss below the crossover", -kInf,
     0, -1.12, 0.01, ""},
    {"fig19", "omni_crossover_mw", "omni: gain above ~2 mW", 1, 4, 0.01, 1e-4,
     "the modelled laboratory penalizes the surface less (+0.49 bit/s/Hz at "
     "0.01 mW); the crossover exists and points the same way"},
    {"fig19", "dir_max_delta_bph", "directional keeps the clean-room gain",
     3.5, 4.5, 3.99, 0.01, ""},
    {"fig20", "mean_shift_db", "RSSI shifts up ~10 dB", 8, 12, 6.27, 0.01,
     "the IoT dipoles' mismatch loss is 14.1 dB (fig02), and the best bias "
     "again leaves the link ~7.8 dB under the matched one (as in fig16)"},
    {"fig21", "max_contrast_db", "much less than fig15's 24 cm contrast", 0,
     kFig15Contrast24Db / 2, 5.95, 0.01, ""},
    {"fig22", "best_gain_db", "up to ~17 dB", 15, 19, 28.24, 0.01,
     "both antennas aim at the surface, so the bare direct path falls off "
     "their patterns: -16.6 dB from 24 to 42 cm, then -67.1 dBm flat"},
    {"fig22", "best_capacity_delta_bph", "~180 kbit/s/Hz", 1.5e5, 2.1e5, 9.38,
     0.01,
     "units: the paper's kbit/s/Hz axis uses its own scaling; the Shannon "
     "delta is 9.4 bit/s/Hz"},
    {"fig23", "with_rate_bpm", "detected with the surface (truth: 15/min)", 14,
     16, 15, 0.01, ""},
    {"fig23", "without_detected", "invisible without the surface", 0, 0, 0, 0,
     ""},
    {"table1", "min_rotation_deg", "from 1.9 deg", 1.5, 2.5, 0.454, 0.001,
     "the model passes near zero between grid biases (0.45 deg at Vx = 4, "
     "Vy = 3 V)"},
    {"table1", "max_rotation_deg", "up to 48.7 deg", 46, 51, 52.67, 0.01,
     "the model over-rotates at opposite-extreme biases (52.7 deg at Vx = 2, "
     "Vy = 15 V, the transpose of the paper's maximum cell)"},
    {"rfid900", "peak_eff_db", "comparable: within 3 dB of -4.4 dB", -7.4,
     -1.4, -3.65, 0.01, ""},
    {"rfid900", "max_rotation_deg", "comparable: >= half of 48.7 deg", 24.35,
     90, 45.43, 0.01, ""},
    {"ablation_search", "best_dbm_spread_db", "(not in paper) one optimum", 0,
     0.1, 0.061, 0.001, ""},
    {"ablation_substrate", "thin_over_thick_db", "thinner layers lose less", 0,
     kInf, 1.06, 0.01, ""},
    {"ablation_substrate", "bom_total_usd", "$900 prototype", 850, 950, 900,
     0.01, ""},
    {"ablation_substrate", "bom_per_unit_usd", "$5 per unit", 4.5, 5.5, 5, 0.01,
     ""},
    {"alg1_sweep", "n2t5_time_s", "N = 2, T = 5 takes 1 s", 0.9, 1.1, 1.0,
     0.001, ""},
    {"alg1_sweep", "full_scan_time_s", "full 1 V scan ~30 s", 25, 35, 19.22,
     0.001,
     "the supply model charges 20 ms per probe (961 probes); the paper's "
     "~30 s implies ~31 ms"},
    {"dense_iot", "slots", "(Section 7 outlook) < 6 slots for 6 devices", 1, 5,
     5, 0, ""},
    {"dense_iot", "throughput_gain_mbps", "scheduling raises throughput", 0,
     kInf, 3.18, 0.01, ""},
    {"wearable_tracking", "tracked_over_frozen_db", "(Fig. 1) > frozen", 0,
     kInf, -0.77, 0.01,
     "the tracker re-sweeps twice (3 dB hysteresis), last at 84 deg, and "
     "holds that bias; the frozen surface keeps the swing-center optimum"},
    {"wearable_tracking", "frozen_over_bare_db", "(Fig. 1) > no surface", 0,
     kInf, -1.93, 0.01,
     "the best bias sits ~8 dB under a matched link (fig16), so near the "
     "Tx's 0 deg the bare link wins"},
};

}  // namespace

std::span<const Figure> figures() { return kFigures; }

std::span<const LedgerRow> ledger() { return kLedger; }

std::string describe(const LedgerRow& row, double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s.%s = %.3f (ledger %g +/- %g); paper: %s => [%g, %g]; ",
                row.figure, row.quantity, value, row.reproduced, row.tolerance,
                row.claim, row.lo, row.hi);
  if (row.deviation[0] == '\0') return std::string{buf} + "holds";
  return std::string{buf} + "DEVIATION: " + row.deviation;
}

}  // namespace llama::bench
