// Sample-level transceiver simulation — the stand-in for the paper's USRP
// N210 + GNU Radio receive chain.
//
// The paper's transmitter "continuously sends a cosine signal over 500 KHz,
// while the sampling rate of the receiver is 1 MHz"; the receiver reports
// signal power averaged over a measurement window. The controller only ever
// sees these scalar power reports, so the simulation produces IQ samples of
// a tone at the channel-determined amplitude plus thermal noise, then
// estimates power exactly the way the testbed script would.
#pragma once

#include <complex>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace llama::radio {

/// Receiver sampling configuration (paper Section 4 defaults).
struct ReceiverConfig {
  double sample_rate_hz = 1e6;        ///< paper: 1 MHz
  double tone_offset_hz = 500e3;      ///< paper: tone over 500 kHz
  common::GainDb noise_figure{7.0};   ///< typical UBX-40 front end
  common::Frequency noise_bandwidth = common::Frequency::khz(500.0);

  /// Throws std::invalid_argument naming the field unless sample_rate_hz
  /// and noise_bandwidth are finite and positive and tone_offset_hz and
  /// noise_figure are finite.
  void validate() const;
};

/// A block of complex baseband samples with its sampling metadata.
struct IqCapture {
  std::vector<std::complex<double>> samples;
  double sample_rate_hz = 1e6;
  double start_time_s = 0.0;

  [[nodiscard]] double duration_s() const {
    return static_cast<double>(samples.size()) / sample_rate_hz;
  }
};

/// Simulated receive chain: synthesizes the tone at the power the channel
/// delivers, adds thermal noise, and estimates received power from samples.
///
/// Input contract: `signal_power` must be a real power level — any finite
/// dBm value or -inf (no signal at all; the chain then measures pure
/// noise). NaN and +inf are programming errors upstream (a broken channel
/// model) and are rejected with std::invalid_argument by capture(),
/// measure() and expected_measure() rather than silently flowing into
/// outage accounting as non-finite power.
class Receiver {
 public:
  /// Runs config.validate(), then computes the thermal floor once: every
  /// measurement reuses it.
  explicit Receiver(ReceiverConfig config, common::Rng rng);

  [[nodiscard]] const ReceiverConfig& config() const { return config_; }

  /// Thermal noise floor of this receiver.
  [[nodiscard]] common::PowerDbm noise_floor_dbm() const;

  /// Synthesizes `n` samples of the tone arriving at `signal_power` (the
  /// channel's output) plus receiver noise, starting at `start_time_s`.
  /// Throws std::invalid_argument on NaN or +inf signal power (see the
  /// class input contract).
  [[nodiscard]] IqCapture capture(common::PowerDbm signal_power, int n,
                                  double start_time_s = 0.0);

  /// Power estimate from a capture: mean |x|^2 converted to dBm. This is
  /// the measurement the paper's controller feeds to Algorithm 1.
  [[nodiscard]] static common::PowerDbm estimate_power(const IqCapture& iq);

  /// Convenience: capture-and-estimate over a measurement window
  /// [seconds]; the paper averages 30 s for baselines, ~20 ms per voltage
  /// step during sweeps. Throws std::invalid_argument on NaN or +inf
  /// signal power.
  [[nodiscard]] common::PowerDbm measure(common::PowerDbm signal_power,
                                         double window_s,
                                         double start_time_s = 0.0);

  /// Expectation of measure() for an infinite window: signal power plus the
  /// thermal floor, with no sampling jitter and no RNG state consumed. The
  /// batched sweep engine uses this so a grid cell costs arithmetic instead
  /// of tens of thousands of synthesized IQ samples, and so grids are pure
  /// functions of the bias plane (byte-identical across thread counts).
  /// Throws std::invalid_argument on NaN or +inf signal power.
  [[nodiscard]] common::PowerDbm expected_measure(
      common::PowerDbm signal_power) const;

 private:
  ReceiverConfig config_;
  common::Rng rng_;
  double noise_mw_ = 0.0;  ///< noise_floor_dbm() in mW
};

}  // namespace llama::radio
