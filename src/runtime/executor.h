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
/// what a serial run would produce — while wall-clock costs (activation,
/// per-block scaffolding, transport envelopes) are paid once per batch.
struct BatchExecutionReport {
  std::vector<ExecutionReport> reports;  // one per batch member, in order
  /// True when the members executed as a single fused pass; false when the
  /// batch was decomposed to per-request run() calls (fault injection is
  /// attached, or the batch has one member). Transport stats in the fused
  /// case are batch-level aggregates shared by every member's report.
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

  /// Execute `image` (NCHW, spatial size == config.resolution) under the
  /// given strategy. The supernet's active config is set to `config`.
  /// `sim_start_ms` anchors the request on the simulated clock so
  /// scheduled faults (crash at t, blackout window) line up with the
  /// blocks executing at that time.
  ExecutionReport run(const Tensor& image,
                      const supernet::SubnetConfig& config,
                      const partition::PlacementPlan& plan,
                      double sim_start_ms = 0.0);

  /// Execute a strategy-coalesced batch: every image runs under the SAME
  /// (config, plan), activated once. Samples are quantized individually at
  /// tile boundaries and shipped in one ACTB envelope per (tile, piece), so
  /// each member's logits are bitwise identical to a serial run() of that
  /// member. Tile scatter overlaps tile compute: assembly tasks are
  /// dispatched to the device pool before the send loop runs, and tag
  /// epochs give consecutive batches disjoint mailbox namespaces so a
  /// batch's trailing receives never alias the next batch's leading sends.
  /// Each unit forward (stem, every tile, head) is split along the member
  /// dimension into contiguous chunks run concurrently on the kernel pool
  /// (tensor/gemm.h kernel_parallel_for); the split sits between receive
  /// and send, so envelopes, payload bytes and the sim clock do not change.
  /// With a fault injector attached (failover is a per-request protocol)
  /// or a single-member batch, the batch decomposes to per-request run()
  /// calls with per-member sim anchors. An empty batch returns an empty
  /// report; throws std::invalid_argument unless sim_start_ms has one
  /// entry per image.
  BatchExecutionReport run_batch(const std::vector<Tensor>& images,
                                 const supernet::SubnetConfig& config,
                                 const partition::PlacementPlan& plan,
                                 const std::vector<double>& sim_start_ms);

 private:
  supernet::Supernet& supernet_;
  const netsim::Network& network_;
  Transport transport_;
  ThreadPool pool_;
  FailoverOptions failover_;
  std::atomic<std::uint64_t> batch_epoch_{1};  // tag namespace per batch
};

}  // namespace murmur::runtime
