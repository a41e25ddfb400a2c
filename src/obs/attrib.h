// Per-request latency attribution: the phase ledger and its aggregation.
//
// Every admitted request's observed sim latency (queue wait + executor sim
// latency) is attributed to an exhaustive set of phases; the ledger carries
// one slot per phase on two clocks:
//
//   * sim_ms  — the simulated clock the SLO is judged on. The invariant
//     `sim_total() == observed sim latency` holds to within 1e-6 ms for
//     every request (tests/test_attrib.cpp asserts it across serial,
//     batched and fault-injected serving).
//   * wall_ms — host wall clock, informational. Wall phases do NOT sum to
//     the wall request latency (threads overlap, replica workers batch);
//     they exist to explain sim/wall gaps such as the batched-vs-serial
//     throughput inversion in BENCH_serving.json.
//
// Phase taxonomy (DESIGN.md §5.11):
//   kQueueWait      admission queue: est_start - arrival on the sim clock.
//   kBatchWindow    replica-queue coalescing delay: from joining the
//                   replica queue to the start of the request's group,
//                   charged by the pool worker. Zero on the sim clock by
//                   construction — the occupancy model amortizes batching
//                   into per-member occupancy instead of charging a wait —
//                   so the phase is wall-only today; the slot exists so the
//                   taxonomy stays exhaustive when that changes.
//   kDecision       monitor + strategy cache / RL decide (wall-only; the
//                   sim clock does not model decision latency).
//   kSwitch         supernet weight-switch (wall-only, amortized over a
//                   coalesced batch: first member carries it).
//   kTransportSend  serialization legs of every critical-path transfer
//                   (bandwidth component of netsim's transfer_ms).
//   kTransportRecv  propagation legs (path-delay component) of the same
//                   transfers.
//   kCompute        critical-path device compute.
//   kGather         head-side gather: logits assembly + the final
//                   logits-return transfer.
//   kFailover       executor failover penalty (redispatch / local
//                   fallback), already a separate term in the report.
//
// Aggregation: `note_request` feeds per-phase, per-device and per-strategy
// log-bucket histograms in the global MetricsRegistry (names below), all
// gated on obs::enabled(). Registry pointers are stable for the process
// lifetime, so call sites may cache Histogram*.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace murmur::obs {

enum class Phase : std::uint8_t {
  kQueueWait = 0,
  kBatchWindow,
  kDecision,
  kSwitch,
  kTransportSend,
  kTransportRecv,
  kCompute,
  kGather,
  kFailover,
  kCount,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// Short stable identifier ("queue_wait", "transport_send", ...), used in
/// histogram names, JSON keys and CLI tables.
const char* phase_name(Phase p) noexcept;

/// Per-request dual-clock attribution record. Plain value type — copied
/// into InferenceResult and the flight recorder; no locking, no telemetry
/// dependency (safe to fill even when obs is disabled).
struct PhaseLedger {
  std::array<double, kPhaseCount> sim_ms{};
  std::array<double, kPhaseCount> wall_ms{};

  void charge(Phase p, double ms) noexcept {
    sim_ms[static_cast<std::size_t>(p)] += ms;
  }
  void charge_wall(Phase p, double ms) noexcept {
    wall_ms[static_cast<std::size_t>(p)] += ms;
  }
  double sim(Phase p) const noexcept {
    return sim_ms[static_cast<std::size_t>(p)];
  }
  double wall(Phase p) const noexcept {
    return wall_ms[static_cast<std::size_t>(p)];
  }
  /// Sum of every sim phase — must equal observed sim latency ±1e-6 ms.
  double sim_total() const noexcept {
    double t = 0.0;
    for (double v : sim_ms) t += v;
    return t;
  }
  double wall_total() const noexcept {
    double t = 0.0;
    for (double v : wall_ms) t += v;
    return t;
  }
};

/// Per-device attribution slice (send/recv/compute on the sim clock), as
/// decomposed by the partition evaluator's critical-path playout.
struct DeviceSlice {
  int device = 0;
  double send_ms = 0.0;
  double recv_ms = 0.0;
  double compute_ms = 0.0;
};

/// Feed one completed request into the aggregate histograms:
///   attrib.phase.<phase>            sim ms per phase (zero phases skipped)
///   attrib.wall.<phase>             wall ms per phase (nonzero only)
///   attrib.dev<d>.{send,recv,compute}_ms   per-device slices
///   attrib.strategy.<key>.latency_ms       per-strategy observed latency
///   attrib.replica<r>.latency_ms           per-replica observed latency
///                                          (r >= 0 only; single-system
///                                          callers pass the default -1
///                                          and emit no replica series)
/// Strategy keys are capped (kMaxStrategyKeys); overflow lands in
/// "attrib.strategy.other.latency_ms". No-op while telemetry is disabled.
void note_request(const PhaseLedger& ledger,
                  const std::vector<DeviceSlice>& devices,
                  std::uint64_t strategy_key, double observed_sim_ms,
                  int replica = -1);

inline constexpr std::size_t kMaxStrategyKeys = 32;

/// Count one phase-sum invariant violation ("attrib.invariant_violations")
/// and log it at warn level (the counter — asserted zero by tests and the
/// tier-1 gate — is the alarm surface). Returns violation status so call
/// sites can branch; |attributed - observed| <= tol_ms passes.
bool check_invariant(double attributed_ms, double observed_ms,
                     double tol_ms = 1e-6);

/// Rolling window over recent request outcomes: SLO compliance, shed rate
/// and the derived SLO burn rate. Mutex-protected — finalize runs on pool
/// workers concurrently; windows are small (default 512) so the lock is
/// uncontended in practice.
class RollingOutcomeWindow {
 public:
  explicit RollingOutcomeWindow(std::size_t capacity = 512);

  void record(bool slo_met, bool shed);

  std::size_t size() const;
  /// Fraction of windowed requests that met their SLO (shed requests count
  /// against compliance — a shed deadline is a missed deadline).
  double compliance() const;
  /// Fraction of windowed requests shed at admission.
  double shed_rate() const;
  /// Error budget burn: (1 - compliance) / (1 - target). 1.0 means burning
  /// exactly at target rate; >1 exhausts the budget early. 0 when the
  /// window is empty or the target is degenerate (>= 1).
  double burn_rate(double target = 0.95) const;

 private:
  struct Slot {
    bool slo_met = false;
    bool shed = false;
  };
  mutable std::mutex mutex_;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;   // next write position
  std::size_t count_ = 0;  // min(total records, capacity)
  std::size_t met_ = 0;    // windowed slo_met count
  std::size_t shed_ = 0;   // windowed shed count
};

}  // namespace murmur::obs
