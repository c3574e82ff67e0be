#pragma once

#include "common/contracts.hpp"
#include "common/types.hpp"

namespace reconf {

/// Configuration-latency model for the 1D device — the single source of
/// truth for what one (re)configuration costs, shared by the simulator
/// (SimConfig::reconf), the online runtime (rt::RuntimeConfig::reconf) and
/// the analysis-side WCET inflation (analysis::OverheadModel::cost).
///
/// The paper assumes zero reconfiguration overhead (Section 1, assumption 3)
/// and suggests folding a nonzero one into the execution time; Resano et
/// al.'s prefetch work (PAPERS.md) instead hides it behind execution. Both
/// treatments charge the same quantity per placement, modeled here:
///
///   placement_ticks(A) = fixed + per_column · A
///
/// `fixed` covers the area-independent part of a configuration (bitstream
/// header processing, ICAP setup); `per_column` is the paper's ρ — frame
/// transfer time proportional to the occupied columns. The defaults keep
/// the paper's zero-overhead assumption; kDefaultPerColumnTicks is the
/// reference nonzero setting the reconf-heavy oracle family, the runtime
/// benches and the examples share instead of scattering literals.
struct ReconfCostModel {
  Ticks fixed = 0;       ///< per-placement constant cost (ticks)
  Ticks per_column = 0;  ///< ρ — cost per occupied column (ticks)

  /// Reference nonzero ρ for experiments: 4 ticks (0.04 paper time-units)
  /// per column, a mid-range figure for frame-addressable devices where a
  /// full-width (100-column) configuration costs a few paper time-units.
  static constexpr Ticks kDefaultPerColumnTicks = 4;

  /// Cost of placing a configuration of `area` columns.
  [[nodiscard]] constexpr Ticks placement_ticks(Area area) const {
    RECONF_EXPECTS(fixed >= 0 && per_column >= 0 && area >= 0);
    return fixed + per_column * static_cast<Ticks>(area);
  }

  [[nodiscard]] constexpr bool free() const noexcept {
    return fixed == 0 && per_column == 0;
  }

  friend constexpr bool operator==(const ReconfCostModel& a,
                                   const ReconfCostModel& b) noexcept {
    return a.fixed == b.fixed && a.per_column == b.per_column;
  }
};

}  // namespace reconf
