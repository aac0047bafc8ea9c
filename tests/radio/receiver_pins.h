// Pinned outputs of the receiver's measurement model, as hexfloats. They
// were recorded from radio::Receiver as it computed its thermal floor per
// call; test_transceiver.cpp holds the receiver to them at 1e-12, so a
// change to where the floor is computed cannot move a measured power.
#pragma once

#include <limits>

namespace llama::radio::pins {

/// Signal powers [dBm] the pins below are taken at: no signal at all,
/// below the floor, near it, and well above it.
inline constexpr double kSignalDbm[5] = {
    -std::numeric_limits<double>::infinity(), -125.0, -108.5, -60.0, 3.0,
};

/// expected_measure(kSignalDbm[k]) [dBm], indexed [config][k]:
///  - config 0: the default ReceiverConfig (7 dB noise figure, 500 kHz);
///  - config 1: a 4.5 dB noise figure over a 1.25 MHz noise bandwidth.
inline constexpr double kExpectedMeasureDbm[2][5] = {
    {-0x1.b7f1238b2e6c8p+6, -0x1.b76723b046a44p+6, -0x1.a8ad4ca697a8bp+6,
     -0x1.dfffe927841dap+5, 0x1.800000000c019p+1},
    {-0x1.b2063baff5c5p+6, -0x1.b1a3a2819e0e1p+6, -0x1.a5f8917e05b38p+6,
     -0x1.dfffdfe1e7ff7p+5, 0x1.8000000010e0fp+1},
};

/// capture(-70 dBm, 3) from the default ReceiverConfig seeded Rng{7}: Re/Im
/// of each sample [sqrt(mW)].
inline constexpr double kCaptureSeed7[6] = {
    0x1.4da3727018e55p-12,  0x1.4911117fad702p-20, -0x1.4f5ea5a4226e1p-12,
    -0x1.37594efd6d2f7p-20, 0x1.4aa47d809893fp-12, -0x1.bd4d2283c14bdp-19,
};

}  // namespace llama::radio::pins
