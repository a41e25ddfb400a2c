// Online adaptation (DESIGN.md §5.14): closes the loop from serving
// telemetry back into the decision path.
//
// Four coupled mechanisms, all owned by OnlineAdapter:
//
//   * Live trajectories. Every finished request deposits a ServingSample
//     (planning constraint, executed actions, model-predicted vs observed
//     latency, SLO verdict). The background trainer hindsight-relabels each
//     sample with its OBSERVED outcome and inserts it into a private
//     bucketed replay tree — the strategy store learns reality, not the
//     model's opinion of it.
//
//   * Guarded policy snapshots. The trainer runs incremental GCSL imitation
//     updates on a working copy of the policy, frames the result with a
//     checksummed MCKF container (common/serialize.h), and offers it for
//     publication. Publication validates the checksum bit-for-bit, then
//     shadow-replays recent constraints (flight records + the adapter's own
//     sample window) under the candidate and under the published
//     incumbent; a candidate that loses more than `guard_epsilon`
//     compliance is rejected and the working policy rolls back to the
//     incumbent. Accepted candidates become immutable PolicySnapshots
//     swapped in with one release-store — the serving hot path pays one
//     acquire-load, never a lock, and retired snapshots stay alive until
//     the adapter dies, so readers never race a free.
//
//   * Drift detection. The decision path feeds every (forecast, sample)
//     pair from the network monitor into a per-device two-sided residual
//     CUSUM (netsim/drift.h). A detected regime shift makes the owner
//     re-fit the monitor (NetworkMonitor::reset_device) and purge cached
//     strategies touching the drifted device.
//
//   * Latency calibration. Observed/predicted latency ratios fold into a
//     per-device EWMA (core::LatencyCalibration); the decision engine
//     inflates model latency by the worst participating device's ratio, so
//     decisions track reality even where the trained constraint envelope
//     clamps (the bench_regime_shift failure mode).
//
// Threading: observe_network is documented to run under the caller's
// monitor mutex (the drift detector is not internally synchronized);
// observe_outcome is safe from any completion thread (queue mutex +
// atomics); run_cycle runs on the background thread (or is driven manually
// in tests) and touches only trainer-private state plus the shared env,
// whose evaluations are pure and so need no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/decision.h"
#include "core/murmuration_env.h"
#include "netsim/drift.h"
#include "rl/policy.h"
#include "rl/replay_tree.h"

namespace murmur::runtime {

struct AdaptOptions {
  /// New serving samples required before the trainer attempts a cycle.
  std::size_t min_cycle_samples = 8;
  /// GCSL imitation updates per trainer cycle.
  int updates_per_cycle = 4;
  /// (constraint, actions) pairs per imitation update.
  std::size_t imitation_batch = 16;
  /// Background-thread sleep between cycle attempts.
  double cycle_interval_ms = 25.0;
  /// Retained recent-sample window (guardrail shadow-replay source).
  std::size_t sample_window = 256;
  /// Constraints required for a guarded comparison; with fewer the
  /// candidate publishes unguarded (counted in stats().unguarded).
  std::size_t guard_min_points = 12;
  /// Max shadow-replay points per guardrail evaluation (newest first).
  std::size_t guard_max_points = 64;
  /// Compliance a candidate may lose vs the incumbent before rejection.
  double guard_epsilon = 0.02;
  /// Replay-tree bucket queue depth (mirrors SupremeOptions::bucket_queue).
  std::size_t bucket_queue = 4;
  netsim::DriftOptions drift{};
  /// EWMA step of the latency calibration.
  double calib_alpha = 0.25;
  std::uint64_t seed = 7777;
};

/// Immutable published policy state. Never mutated after publication;
/// concurrent decision-path readers share the replay tree, whose lookup
/// memo guards itself.
class PolicySnapshot {
 public:
  std::uint64_t id() const noexcept { return id_; }
  /// FNV-1a of the checked frame the snapshot was decoded from (0 for the
  /// bootstrap snapshot of the frozen policy).
  std::uint64_t checksum() const noexcept { return checksum_; }
  const rl::PolicyNetwork& policy() const noexcept { return *policy_; }
  const rl::BucketedReplayTree* replay() const noexcept {
    return replay_.get();
  }

 private:
  friend class OnlineAdapter;
  std::uint64_t id_ = 0;
  std::uint64_t checksum_ = 0;
  std::unique_ptr<rl::PolicyNetwork> policy_;
  std::unique_ptr<rl::BucketedReplayTree> replay_;
};

enum class SnapshotVerdict {
  kPublished,
  kPublishedUnguarded,   // accepted without shadow replay (too few points)
  kRejectedChecksum,     // frame failed MCKF validation or deserialization
  kRejectedGuardrail,    // candidate lost compliance vs the incumbent
};

const char* to_string(SnapshotVerdict v) noexcept;

class OnlineAdapter {
 public:
  /// One completed request, as the serving layer saw it.
  struct ServingSample {
    rl::ConstraintPoint constraint;   // what the decision planned against
    std::vector<int> actions;         // executed strategy, encoded
    double model_latency_ms = 0.0;    // raw analytic prediction
    double observed_latency_ms = 0.0; // executor-evaluated latency
    double accuracy = 0.0;            // predicted accuracy of the strategy
    bool slo_met = false;
    std::vector<bool> participants;   // devices the executed plan touched
  };

  struct Stats {
    std::uint64_t samples = 0;
    std::uint64_t cycles = 0;
    std::uint64_t published = 0;
    std::uint64_t unguarded = 0;
    std::uint64_t rejected_checksum = 0;
    std::uint64_t rejected_guardrail = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t drift_events = 0;
    std::uint64_t snapshot_id = 0;
    double calibration_max_ratio = 1.0;
  };

  /// `frozen_policy` / `frozen_replay` seed snapshot 0 (cloned; the
  /// originals are not retained). `env` is held by reference and must
  /// outlive the adapter; shadow replays and relabels evaluate on it.
  OnlineAdapter(const core::MurmurationEnv& env,
                const rl::PolicyNetwork& frozen_policy,
                const rl::BucketedReplayTree* frozen_replay,
                AdaptOptions opts = {});
  ~OnlineAdapter();

  OnlineAdapter(const OnlineAdapter&) = delete;
  OnlineAdapter& operator=(const OnlineAdapter&) = delete;

  /// Decision-path read: the current snapshot. One acquire-load, no lock;
  /// never null; the pointee is immutable and outlives every reader.
  const PolicySnapshot* current() const noexcept {
    return published_.load(std::memory_order_acquire);
  }

  core::LatencyCalibration& calibration() noexcept { return calib_; }
  const core::LatencyCalibration& calibration() const noexcept {
    return calib_;
  }

  /// Completion-path ingest: queue the sample for the trainer and fold its
  /// latency ratio into the calibration. Thread-safe; O(1).
  void observe_outcome(const ServingSample& sample);

  /// Decision-path drift feed: one (forecast, probe) residual pair for a
  /// remote device. Returns true when the CUSUM fires — the caller should
  /// re-fit its monitor and purge strategies touching the device. NOT
  /// internally synchronized: call under the owning monitor mutex.
  bool observe_network(std::size_t device, double forecast_bw_mbps,
                       double sampled_bw_mbps, double forecast_delay_ms,
                       double sampled_delay_ms);

  /// One trainer cycle: drain queued samples into the working replay, run
  /// imitation updates, frame + offer a candidate snapshot. Returns true
  /// if a cycle ran (enough samples). Runs on the background thread; tests
  /// drive it synchronously instead of start().
  bool run_cycle();

  /// Guarded publication of a checked frame (common/serialize.h encoding
  /// of PolicyNetwork::serialize()). Validates the MCKF checksum, decodes
  /// a fresh policy, shadow-replays the guardrail, and atomically swaps
  /// the snapshot in on success. Any rejection rolls the working policy
  /// back to the incumbent (stats().rollbacks / adapt.rollbacks). `replay`
  /// (may be null) is adopted into the snapshot only when published.
  /// Trainer-thread-side (touches trainer-private state); public so tests
  /// can offer adversarial candidates directly when the thread is stopped.
  SnapshotVerdict offer_candidate(std::span<const std::uint8_t> frame,
                                  std::unique_ptr<rl::BucketedReplayTree> replay);

  /// Frame version tag of snapshot frames (decode_checked version).
  static constexpr std::uint32_t kFrameVersion = 1;
  /// Frame the current working policy (convenience for tests/benches).
  std::vector<std::uint8_t> frame_working_policy() const;

  void start();  // spawn the background trainer thread (idempotent)
  void stop();   // join it (idempotent; also called by the destructor)

  Stats stats() const noexcept;

 private:
  std::unique_ptr<rl::PolicyNetwork> clone_policy(
      const rl::PolicyNetwork& src) const;
  std::unique_ptr<rl::BucketedReplayTree> clone_replay(
      const rl::BucketedReplayTree* src) const;
  /// Compliance of `policy`+`replay` over `points` (greedy decisions,
  /// SLO-satisfaction fraction).
  double shadow_compliance(const rl::PolicyNetwork& policy,
                           const rl::BucketedReplayTree* replay,
                           std::span<const rl::ConstraintPoint> points);
  std::vector<rl::ConstraintPoint> guard_points() const;
  void roll_back_working();
  void publish(std::unique_ptr<PolicySnapshot> snap);
  void publish_metrics() const;
  void trainer_main();

  const core::MurmurationEnv& env_;
  AdaptOptions opts_;
  core::LatencyCalibration calib_;

  // --- trainer-private state (touched only by run_cycle's thread) --------
  std::unique_ptr<rl::PolicyNetwork> working_policy_;
  std::unique_ptr<rl::BucketedReplayTree> working_replay_;
  std::vector<std::uint8_t> incumbent_bytes_;  // rollback source
  Rng trainer_rng_;

  // --- ingest queue + guardrail window (sample_mutex_) -------------------
  mutable std::mutex sample_mutex_;
  std::vector<ServingSample> pending_;
  std::deque<ServingSample> window_;

  // --- drift (caller-synchronized, see observe_network) ------------------
  netsim::DriftDetector drift_;

  // --- publication -------------------------------------------------------
  std::mutex publish_mutex_;  // writers only; readers use published_
  std::vector<std::unique_ptr<PolicySnapshot>> retained_;
  std::atomic<const PolicySnapshot*> published_{nullptr};
  std::atomic<std::uint64_t> next_snapshot_id_{0};

  // --- background thread -------------------------------------------------
  std::thread trainer_;
  std::atomic<bool> running_{false};

  // --- stats (lock-free; readable from any thread) -----------------------
  std::atomic<std::uint64_t> samples_{0}, cycles_{0}, published_count_{0},
      unguarded_{0}, rejected_checksum_{0}, rejected_guardrail_{0},
      rollbacks_{0}, drift_events_{0};
};

}  // namespace murmur::runtime
