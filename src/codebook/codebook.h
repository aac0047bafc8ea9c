// Compiled bias codebook: the runtime half of the offline-compile /
// O(1)-lookup split.
//
// Every Algorithm-1 sweep answers the same question — "which (Vx, Vy) pair
// maximizes received power?" — and the answer is a pure function of
// (frequency, device orientation, surface mode, link configuration). A
// Codebook stores that answer on a uniform (frequency x orientation)
// lattice, compiled once offline (see compiler.h), so a runtime
// re-optimization collapses from an N*T^2-probe sweep (~1 s of supply
// switching) to one table lookup plus one supply switch. The object is
// immutable after construction: lookups touch no mutable state and take no
// locks, so one codebook serves every device of a deployment concurrently.
//
// Persistence: a versioned, endian-safe binary format with a magic tag and
// the compile-time configuration hash in the header. A codebook compiled
// for a different link configuration — or a truncated/corrupt file — is
// rejected with a typed error instead of silently returning wrong biases.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/metasurface/metasurface.h"

namespace llama::codebook {

/// Malformed persisted codebook: truncated, corrupt, wrong magic/version.
class CodebookFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structurally valid codebook compiled for a different configuration.
class CodebookStaleError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Format limit on per-cell refinement entries; the compiler clamps to it
/// and the loader rejects headers beyond it.
inline constexpr std::uint64_t kMaxTopK = 4096;

/// Uniform inclusive axis: `count` points from min to max. A single-point
/// axis (count == 1) collapses interpolation along that dimension.
struct AxisSpec {
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 1;

  [[nodiscard]] double at(std::size_t i) const;
};

/// One recommended bias pair plus the power the compiler predicts there.
struct BiasPoint {
  common::Voltage vx{0.0};
  common::Voltage vy{0.0};
  common::PowerDbm predicted_power{-120.0};
};

/// One lattice cell: the arg-max bias pair of the compiled sweep plane and
/// its top-K runner-up cells (descending power). The runners-up span the
/// local neighborhood a fine sweep should refine over when the measured
/// power deviates from the prediction.
struct CellEntry {
  BiasPoint best;
  std::vector<BiasPoint> refinement;
};

/// Bias-plane box covering a cell's refinement neighborhood.
struct RefinementWindow {
  common::Voltage vx_min{0.0};
  common::Voltage vx_max{30.0};
  common::Voltage vy_min{0.0};
  common::Voltage vy_max{30.0};
};

class Codebook {
 public:
  struct Header {
    /// Hash of the compile-time link configuration (see
    /// compiler.h::system_config_hash). Lookup integrations compare it
    /// against the live system before trusting the table.
    std::uint64_t config_hash = 0;
    metasurface::SurfaceMode mode = metasurface::SurfaceMode::kTransmissive;
    AxisSpec frequency_hz;
    AxisSpec orientation_rad;
    /// Bias grid the cells were compiled from (both axes).
    double v_min_v = 0.0;
    double v_max_v = 30.0;
    double v_step_v = 1.0;
    /// Refinement entries per cell (identical for every cell).
    std::uint64_t top_k = 0;
  };

  /// Cells are frequency-major: cells[fi * orientation.count + oi].
  /// Throws std::invalid_argument on inconsistent dimensions.
  Codebook(Header header, std::vector<CellEntry> cells);

  [[nodiscard]] const Header& header() const { return header_; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  [[nodiscard]] const CellEntry& cell(std::size_t fi, std::size_t oi) const;

  /// O(1) runtime query: bilinear interpolation of the four lattice cells
  /// bracketing (f, orientation). The orientation is folded into [0, 180)
  /// degrees first (linear polarization is pi-periodic); both coordinates
  /// are then clamped to the lattice range (flat extrapolation, matching
  /// common::interp1's convention). No locks, no allocation, no mutation.
  /// Throws std::invalid_argument naming the argument when f or the
  /// orientation is not finite.
  [[nodiscard]] BiasPoint lookup(common::Frequency f,
                                 common::Angle orientation) const;

  /// The single lattice cell nearest to (f, orientation) — the anchor for
  /// fine-sweep refinement. Throws like lookup() on a non-finite query.
  [[nodiscard]] const CellEntry& nearest(common::Frequency f,
                                         common::Angle orientation) const;

  /// True when f lies within the compiled frequency axis (inclusive; a
  /// single-point axis covers exactly its one frequency). The orientation
  /// axis needs no such check — orientations fold pi-periodically — but
  /// frequency coverage can be a single point, so integrations reject an
  /// uncovered frequency instead of letting lookup() flat-clamp onto
  /// biases compiled for a different band.
  [[nodiscard]] bool covers_frequency(common::Frequency f) const;

  /// Bias-plane box spanning a cell's best + refinement points, padded by
  /// one compile grid step and clamped to the compiled bias range.
  [[nodiscard]] RefinementWindow refinement_window(const CellEntry& c) const;

  /// Serializes to the versioned binary format (magic, version, config
  /// hash, lattice header, cells, FNV-1a checksum trailer). Byte-identical
  /// across hosts regardless of endianness.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Parses a serialized codebook. Throws CodebookFormatError on any
  /// malformed input (truncated header or body, bad magic, unsupported
  /// version, checksum mismatch, nonsensical lattice) and
  /// CodebookStaleError when `expected_config_hash` is provided and does
  /// not match the stored hash.
  [[nodiscard]] static Codebook deserialize(
      std::span<const std::uint8_t> bytes,
      std::optional<std::uint64_t> expected_config_hash = std::nullopt);

  /// File convenience wrappers around serialize()/deserialize(). I/O
  /// failures throw std::runtime_error; format/staleness errors as above.
  void save(const std::string& path) const;
  [[nodiscard]] static Codebook load(
      const std::string& path,
      std::optional<std::uint64_t> expected_config_hash = std::nullopt);

 private:
  Header header_;
  std::vector<CellEntry> cells_;
};

}  // namespace llama::codebook
