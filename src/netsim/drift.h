// Residual-CUSUM drift detection on the linreg network predictor
// (DESIGN.md §5.14).
//
// The monitor's linear-regression forecast (netsim/predictor.h) assumes the
// link evolves smoothly; a regime shift — an operator re-shaping the link, a
// route change, sudden congestion — breaks that assumption and shows up as a
// sustained bias in the one-step-ahead residual (observed probe minus
// forecast). A two-sided standardized CUSUM accumulates that bias per stream
// (bandwidth and delay of every remote device) and fires when the cumulative
// standardized drift exceeds a threshold. The runtime reacts by re-fitting
// the predictor (dropping the pre-shift monitor history) and purging cached
// strategies that depend on the drifted link.
//
// Detection is fully deterministic given the input stream: the detector owns
// no RNG, so seeded serving runs fire at reproducible request indices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.h"

namespace murmur::netsim {

struct DriftOptions {
  /// CUSUM slack in stddev units: per-sample standardized residual drift
  /// below `k` is absorbed, sustained drift above it accumulates.
  double k = 0.5;
  /// Decision threshold in accumulated stddev units. Regime-scale shifts
  /// standardize to |z| >> h and fire within a couple of samples; the
  /// threshold mainly sets the false-positive run length (Siegmund's
  /// approximation gives ARL0 ~ e^(2k(h+1.17))/(4k^2) per side — ~1e7
  /// samples here, vs ~7e4 at h=10, where day-long stationary runs were
  /// observed to trip spurious cache purges).
  double h = 16.0;
  /// Residual samples a stream must collect (for its noise baseline) before
  /// the CUSUM arms; a cold stream never fires.
  std::size_t min_samples = 12;
  /// Floor on the residual stddev used for standardization, as a fraction
  /// of the running |mean residual| + this absolute floor — keeps a nearly
  /// noise-free stream from dividing by ~0 and firing on numeric dust.
  double sigma_floor = 1e-3;
};

/// One-sided pair of CUSUM statistics over standardized residuals.
class ResidualCusum {
 public:
  explicit ResidualCusum(DriftOptions opts) : opts_(opts) {}
  ResidualCusum() : ResidualCusum(DriftOptions{}) {}

  /// Feed one residual (observed - forecast). Returns true when the CUSUM
  /// crosses the threshold; the statistic and the noise baseline reset so
  /// the detector re-arms against post-shift behaviour.
  bool observe(double residual) noexcept;

  /// Current accumulated statistic (max of the two sides) in stddev units.
  double score() const noexcept { return s_pos_ > s_neg_ ? s_pos_ : s_neg_; }
  std::size_t samples() const noexcept { return stat_.count(); }
  void reset() noexcept;

 private:
  DriftOptions opts_;
  RunningStat stat_;  // residual noise baseline (mean/stddev)
  double s_pos_ = 0.0, s_neg_ = 0.0;
};

/// Per-device drift detection over the monitor's bandwidth and delay
/// forecast residuals. Not internally synchronized: the runtime feeds it
/// under its monitor mutex (the same lock that already serializes the
/// monitor it watches).
class DriftDetector {
 public:
  DriftDetector(std::size_t num_devices, DriftOptions opts);
  explicit DriftDetector(std::size_t num_devices)
      : DriftDetector(num_devices, DriftOptions{}) {}

  /// Feed one probe cycle for `device`: the predictor's pre-probe forecast
  /// vs the fresh probe sample. Returns true when either metric's CUSUM
  /// fires (both streams then reset — the caller re-fits the predictor, so
  /// stale statistics would double-count the same shift).
  bool observe(std::size_t device, double forecast_bw_mbps,
               double sampled_bw_mbps, double forecast_delay_ms,
               double sampled_delay_ms) noexcept;

  std::uint64_t events() const noexcept { return events_; }
  std::uint64_t events(std::size_t device) const noexcept;
  double score(std::size_t device) const noexcept;
  void reset() noexcept;

 private:
  DriftOptions opts_;
  std::vector<ResidualCusum> bw_, delay_;
  std::vector<std::uint64_t> device_events_;
  std::uint64_t events_ = 0;
};

}  // namespace murmur::netsim
