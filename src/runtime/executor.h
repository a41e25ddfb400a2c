// Distributed executor: runs one partitioned inference across the simulated
// device fleet (paper §5: Scheduler + Executor + Remote Execution).
//
// Blocks execute in dependency order; the tiles of a spatially partitioned
// block run concurrently on a thread-per-device pool. Activations crossing
// a device boundary are quantized (per the block's configured bit-width),
// serialized, shipped through the in-process transport and dequantized on
// the receiving side — so quantization error genuinely propagates through
// the rest of the network, exactly as it would over gRPC. Simulated
// end-to-end latency is charged by the same analytic model the RL policy
// was trained against.
#pragma once

#include <atomic>

#include "common/thread_pool.h"
#include "netsim/faults.h"
#include "partition/subnet_latency.h"
#include "runtime/transport.h"
#include "supernet/supernet.h"

namespace murmur::runtime {

/// Fault-tolerance knobs for the executor (DESIGN.md §5.8). Attaching an
/// injector turns failover on; without one the executor behaves (and
/// costs) exactly as the fault-free original.
struct FailoverOptions {
  netsim::FaultInjector* injector = nullptr;  // not owned; nullptr = off
  /// Sim-time a receiver waits beyond the last expected arrival before
  /// declaring the message lost and falling back.
  double recv_slack_ms = 100.0;
  /// Charge for detecting a dead device and re-dispatching its tile.
  double redispatch_penalty_ms = 5.0;
  Transport::RetryPolicy retry{};
};

struct ExecutionReport {
  Tensor logits;
  double sim_latency_ms = 0.0;  // simulated end-to-end latency
  /// Simulated executor time this request keeps the pipeline busy. Equals
  /// sim_latency_ms for a standalone run; for a member of a fused batch it
  /// is the batch's evaluated latency divided by the batch size — payload
  /// bytes and compute scale with the batch while per-message path delays
  /// are paid once — which is what serving admission reserves per request.
  double sim_occupancy_ms = 0.0;
  double wall_ms = 0.0;         // host wall-clock of this run
  TransportStats transport;
  int partitioned_blocks = 0;   // blocks that actually ran tiled
  // Failover accounting (all zero without an injector):
  int redispatched_tiles = 0;   // stem/head/tile assignments moved off dead devices
  int local_fallbacks = 0;      // receives that timed out and re-read locally
  double failover_penalty_ms = 0.0;  // extra simulated latency charged
  bool degraded = false;        // any fault handled during this run
  /// device_failures[d]: failover events this run attributable to device d
  /// (its tile was redispatched off it, or a message it sent never arrived).
  /// Feeds the per-device circuit breakers (DESIGN.md §5.9). Sized
  /// num_devices when an injector is attached, empty otherwise.
  std::vector<int> device_failures;
  /// Critical-path decomposition of the evaluated sim latency (per-request
  /// phase ledger input; DESIGN.md §5.11). Filled only while telemetry is
  /// enabled — the evaluator skips the component chain otherwise — so
  /// check `device_compute_ms.empty()` before reading. For a fused-batch
  /// member this decomposes the member's standalone (batch == 1)
  /// evaluation, matching sim_latency_ms.
  partition::PhaseBreakdown attrib;
};

/// Result of a strategy-coalesced batch (DESIGN.md §5.10). Per-request
/// reports stay individual — logits and simulated latency are identical to
/// what running each member as its own batch of one would produce — while
/// wall-clock costs (activation, per-block scaffolding, transport
/// envelopes) are paid once per walk.
struct BatchExecutionReport {
  std::vector<ExecutionReport> reports;  // one per batch member, in order
  /// True when every member ran in one walk (no fault injector attached);
  /// false when each member walked on its own because failover is a
  /// per-request protocol. Transport stats of a shared walk are walk-level
  /// aggregates present in every member's report.
  bool batched = false;
  double wall_ms = 0.0;  // wall-clock of the whole batch
};

class DistributedExecutor {
 public:
  DistributedExecutor(supernet::Supernet& supernet,
                      const netsim::Network& network);

  /// Attach (or clear, with a default-constructed value) fault tolerance;
  /// forwards the injector and retry policy to the transport.
  void set_failover(const FailoverOptions& failover);
  const FailoverOptions& failover() const noexcept { return failover_; }

  /// Forward SystemOptions::transport_wall_budget_ms to the transport's
  /// recv backstop (non-positive resets to the default).
  void set_transport_wall_budget(double ms) noexcept {
    transport_.set_wall_budget_ms(ms);
  }

  /// Execute `image` (1 x C x R x R, R == config.resolution) under the
  /// given strategy: run_batch of a batch of one. The supernet's active
  /// config is set to `config`. `sim_start_ms` anchors the request on the
  /// simulated clock so scheduled faults (crash at t, blackout window) line
  /// up with the blocks executing at that time.
  ExecutionReport run(const Tensor& image,
                      const supernet::SubnetConfig& config,
                      const partition::PlacementPlan& plan,
                      double sim_start_ms = 0.0);

  /// Execute a strategy-coalesced batch: every image runs under the SAME
  /// (config, plan), activated once, in one stem -> blocks -> head walk.
  /// Samples are quantized individually at tile boundaries and shipped in
  /// one ACTB envelope per (tile, piece), so each member's logits are
  /// bitwise identical to a batch of that member alone. Tile scatter
  /// overlaps tile compute: assembly tasks are dispatched to the device
  /// pool before the send loop runs, and tag epochs give consecutive walks
  /// disjoint mailbox namespaces so a walk's trailing receives never alias
  /// the next walk's leading sends. Each unit forward (stem, every tile,
  /// head) is split along the member dimension into contiguous chunks run
  /// concurrently on the kernel pool (tensor/gemm.h kernel_parallel_for);
  /// the split sits between receive and send, so envelopes, payload bytes
  /// and the sim clock do not change.
  /// With a fault injector attached the same walk runs once per member,
  /// anchored at that member's sim_start_ms, with the failover protocol
  /// (DESIGN.md §5.8): redispatch off dead devices before anything ships,
  /// deadline receives, local fallback with the burned wait charged, and
  /// per-device blame. An empty batch returns an empty report. Throws
  /// std::invalid_argument unless sim_start_ms has one entry per image and
  /// every image is a rank-4 single member of spatial size
  /// config.resolution with the first image's shape.
  BatchExecutionReport run_batch(const std::vector<Tensor>& images,
                                 const supernet::SubnetConfig& config,
                                 const partition::PlacementPlan& plan,
                                 const std::vector<double>& sim_start_ms);

 private:
  /// The one stem -> blocks -> head walk over `members` (n x C x R x R),
  /// returning one report per member. `plan` is a copy: failover rewrites
  /// its entries to the effective placement.
  std::vector<ExecutionReport> walk(const Tensor& members,
                                    const supernet::SubnetConfig& config,
                                    partition::PlacementPlan plan,
                                    double sim_start_ms);

  supernet::Supernet& supernet_;
  const netsim::Network& network_;
  Transport transport_;
  ThreadPool pool_;
  FailoverOptions failover_;
  std::atomic<std::uint64_t> batch_epoch_{1};  // tag namespace per walk
};

}  // namespace murmur::runtime
