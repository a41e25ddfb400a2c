// The Murmuration decision environment: the concrete goal-conditioned
// multi-task RL problem of paper §4.2.
//
// Episode schema (sequential decisions, Fig 5):
//   step 0            : input resolution          (5 options)
//   steps 1..5        : per-stage block depth     (3 options each)
//   then per active block, in execution order:
//       kernel size   (3)  ->  quantization (3)  ->  spatial grid (4)
//       -> one device-selection decision per tile of the chosen grid.
//
// The constraint space is [SLO, bw(dev1), delay(dev1), bw(dev2), ...] with
// every coordinate normalized so 0 = tightest, 1 = most relaxed (see
// rl/env.h). Latency is evaluated by the event-driven partition evaluator
// over the scenario network; accuracy by the calibrated analytic model or,
// when attached, the trained MLP accuracy predictor (paper-faithful).
#pragma once

#include <memory>

#include "core/slo.h"
#include "netsim/network.h"
#include "partition/plan.h"
#include "partition/subnet_latency.h"
#include "rl/env.h"
#include "rl/trajectory.h"
#include "supernet/accuracy_predictor.h"

namespace murmur::core {

struct EnvOptions {
  SloType slo_type = SloType::kLatency;
  double slo_min = 0.0, slo_max = 0.0;  // 0 => scenario defaults
  double bw_min_mbps = 5.0, bw_max_mbps = 500.0;
  double delay_min_ms = 5.0, delay_max_ms = 100.0;
  int grid_points = 10;
  // Reward hyper-parameters (Eq. 2/3): alpha scales the optimised metric,
  // beta shifts it. For the accuracy-SLO mode latency is normalized by the
  // max-submodel all-local latency before entering the reward.
  double alpha = 2.5;
  double beta = 0.4;
};

class MurmurationEnv final : public rl::Env {
 public:
  MurmurationEnv(netsim::Network network, EnvOptions opts);
  MurmurationEnv(netsim::Network network, SloType slo_type);

  // --- rl::Env ------------------------------------------------------------
  int constraint_dims() const override;
  int grid_points() const override { return opts_.grid_points; }
  rl::ConstraintPoint sample_constraint(Rng& rng, int active_dims) const override;
  std::vector<rl::ConstraintPoint> validation_points(int count) const override;
  rl::StepSpec next_step(std::span<const int> actions) const override;
  bool done(std::span<const int> actions) const override;
  int max_episode_len() const override;
  std::size_t feature_dim() const override;
  std::vector<double> features(const rl::ConstraintPoint& c,
                               std::span<const int> actions) const override;
  int head_options(rl::Head head) const override;
  rl::Outcome evaluate(const rl::ConstraintPoint& c,
                       std::span<const int> actions) const override;
  double reward(const rl::ConstraintPoint& c,
                const rl::Outcome& o) const override;
  bool satisfies(const rl::ConstraintPoint& c,
                 const rl::Outcome& o) const override;
  rl::ConstraintPoint relabel(const rl::ConstraintPoint& c,
                              const rl::Outcome& o) const override;
  /// Structural mutations: placement consolidation (everything onto one
  /// device) or FDSP spread (re-grid all blocks, deal tile t of every
  /// block to device (base+t) mod n so regions stay resident).
  std::vector<int> heuristic_mutation(std::span<const int> actions,
                                      Rng& rng) const override;

  // --- Murmuration-specific -----------------------------------------------
  /// Use the trained MLP predictor for accuracy during training/decisions
  /// (not owned; must outlive the env). Null resets to the analytic model.
  void set_accuracy_predictor(const supernet::AccuracyPredictor* p) noexcept {
    predictor_ = p;
  }

  struct Strategy {
    supernet::SubnetConfig config;
    partition::PlacementPlan plan;
  };
  /// Decode a complete action sequence.
  Strategy decode(std::span<const int> actions) const;
  /// Encode a strategy back into the canonical action sequence.
  std::vector<int> encode(const Strategy& s) const;

  /// Constraint point from concrete SLO value + conditions (clamped).
  rl::ConstraintPoint make_constraint(double slo_value,
                                      const netsim::NetworkConditions& cond) const;
  /// Concrete SLO value / conditions from a constraint point.
  double slo_value(const rl::ConstraintPoint& c) const;
  netsim::NetworkConditions conditions(const rl::ConstraintPoint& c) const;

  /// Outcome of a concrete strategy under a constraint point: a pure
  /// function of (strategy, constraint), evaluated on a local copy of the
  /// network with conditions(c) applied, so concurrent callers need no lock.
  rl::Outcome evaluate_strategy(const rl::ConstraintPoint& c,
                                const Strategy& s) const;

  double accuracy_of(const supernet::SubnetConfig& config) const;
  SloType slo_type() const noexcept { return opts_.slo_type; }
  const EnvOptions& options() const noexcept { return opts_; }
  const netsim::Network& network() const noexcept { return network_; }
  /// Mutable access for deployment-time link shaping (tc-style, e.g.
  /// netsim::shape_remotes) before a runtime system copies the network.
  /// Evaluations never read these links (each applies its constraint's
  /// conditions to a copy), so this sets the state monitors probe only.
  netsim::Network& mutable_network() noexcept { return network_; }
  std::size_t num_devices() const noexcept { return network_.num_devices(); }
  /// Latency of the max submodel fully local (reward normalizer).
  double reference_latency_ms() const noexcept { return ref_latency_ms_; }

  /// Bootstrap episodes (max- and min-submodel all-local trajectories),
  /// evaluated at the given constraint's conditions, per paper §6.1.1.
  std::vector<rl::Episode> bootstrap_episodes() const;

 private:
  struct Walk;  // schema cursor, defined in the .cpp
  double norm_slo(double value) const noexcept;    // -> tightness coord
  double denorm_slo(double coord) const noexcept;  // coord -> value
  double norm_bw(double mbps) const noexcept;
  double denorm_bw(double coord) const noexcept;
  double norm_delay(double ms) const noexcept;
  double denorm_delay(double coord) const noexcept;

  netsim::Network network_;  // scenario devices + deployment link shaping
  EnvOptions opts_;
  const supernet::AccuracyPredictor* predictor_ = nullptr;
  double ref_latency_ms_ = 0.0;
};

}  // namespace murmur::core
