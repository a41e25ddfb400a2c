// MurmurationSystem: the full online deployment (stage 3, paper Fig 10).
//
// Per inference request: the network monitor refreshes its estimates; the
// monitoring-data predictor forecasts short-term conditions; the strategy
// cache is consulted (precomputed or previously decided strategies); on a
// miss, the Model Selection and Partition Decision module runs the RL
// policy (plus the SUPREME bucket store); the Model Reconfig module
// switches the resident supernet; and the Scheduler/Executor runs the
// partitioned inference across the simulated devices.
//
// Concurrency (DESIGN.md §5.9): infer(image, RequestContext),
// plan_request and execute_batch are safe to call from several threads at
// once. The strategy cache takes concurrent lookups lock-free of the rest
// of the pipeline; monitoring + RL decision serialize on a decision mutex
// (the env re-applies conditions to a shared network model per
// evaluation); model switch + distributed execution serialize on an
// execution mutex (one resident supernet). Serving therefore pipelines:
// the replica pool's router plans one request while a worker executes
// another group.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/decision.h"
#include "core/strategy_cache.h"
#include "core/training.h"
#include "netsim/monitor.h"
#include "netsim/predictor.h"
#include "obs/attrib.h"
#include "runtime/breaker.h"
#include "runtime/executor.h"
#include "runtime/supernet_host.h"

namespace murmur::runtime {

class OnlineAdapter;  // runtime/adapt.h
class FrontRefiner;   // runtime/pareto_refiner.h

struct SystemOptions {
  core::Slo slo = core::Slo::latency_ms(200.0);
  bool use_cache = true;
  bool use_predictor = true;      // precompute for forecast conditions
  double precompute_horizon_ms = 200.0;
  /// Width multiplier of the executable supernet instance (1.0 is the
  /// paper architecture; smaller widths keep example runtimes small).
  double exec_width_mult = 0.25;
  int classes = 1000;
  std::uint64_t seed = 2024;
  /// Turn the process-global telemetry layer on (obs::set_enabled(true)) at
  /// construction: per-stage spans + metrics for every infer(). `false`
  /// leaves the global switch untouched (default off: the instrumented
  /// paths cost one relaxed atomic load each, no locks).
  bool telemetry = false;
  /// Wall-clock backstop for the transport's deadline-aware receives
  /// (Transport::set_wall_budget_ms; see TransportStats::timeouts docs).
  /// Non-positive keeps the transport default.
  double transport_wall_budget_ms = Transport::kDefaultWallBudgetMs;
  /// Per-device circuit breakers fed by observed failover events
  /// (runtime/breaker.h). Breakers only act when a FaultInjector is
  /// attached — without one no failures are ever observed.
  BreakerOptions breaker{};
};

/// Per-request outcome under faults (DESIGN.md §5.8). Precedence when
/// several apply: kFailed > kSloViolated > kDegraded > kCompleted.
enum class RequestOutcome {
  kCompleted,    // no fault touched this request
  kDegraded,     // served correctly, but failover paths ran
  kSloViolated,  // served, but the (possibly fault-inflated) latency or
                 // accuracy misses the SLO
  kFailed,       // could not be served (e.g. the local device is down)
};

const char* to_string(RequestOutcome outcome) noexcept;

/// Serving context for the thread-safe infer overload: where the request
/// sits on the simulated clock, what it is entitled to, and how much of
/// its budget the admission queue already burned.
struct RequestContext {
  /// The SLO the caller is owed; outcome accounting judges against this
  /// (with queue_wait_ms added to the latency side).
  core::Slo slo = core::Slo::latency_ms(200.0);
  /// The (possibly degraded) SLO the decision module plans against — the
  /// serving layer's ladder tightens this under load so the policy picks
  /// cheaper submodels. Defaults to `slo` when left value-equal.
  core::Slo plan_slo = core::Slo::latency_ms(200.0);
  /// The request's position on the simulated clock (arrival + queue wait).
  double sim_now_ms = 0.0;
  /// Sim-time spent queued before this call; charged into the SLO check.
  double queue_wait_ms = 0.0;
  /// Per-request RNG stream for policy sampling (keeps concurrent requests
  /// deterministic independent of worker interleaving).
  std::uint64_t seed = 0;
};

struct InferenceResult {
  Tensor logits;
  int predicted_class = 0;
  core::Decision decision;
  double sim_latency_ms = 0.0;
  /// Sim-clock executor occupancy attributed to this request: equals
  /// sim_latency_ms when it ran standalone; a fused-batch member's equal
  /// share of the batch's evaluated latency otherwise (DESIGN.md §5.10).
  /// Serving admission reserves this, while SLO judgment stays on
  /// sim_latency_ms.
  double sim_occupancy_ms = 0.0;
  double decision_wall_ms = 0.0;
  double switch_wall_ms = 0.0;
  double exec_wall_ms = 0.0;
  bool cache_hit = false;
  bool slo_met = false;
  // Fault handling (defaults describe the fault-free path):
  RequestOutcome outcome = RequestOutcome::kCompleted;
  TransportStats transport;
  int redispatched_tiles = 0;
  int local_fallbacks = 0;
  int replanned_entries = 0;       // plan entries moved before dispatch
  std::size_t cache_purged = 0;    // strategies invalidated by the health mask
  double failover_penalty_ms = 0.0;
  // Attribution (DESIGN.md §5.11); populated only while telemetry is on.
  /// Dual-clock phase ledger. Sim phases sum to the observed sim latency
  /// (ctx.queue_wait_ms + sim_latency_ms) to within 1e-6 ms; wall phases
  /// are informational (threads overlap, they do not sum to anything).
  obs::PhaseLedger ledger;
  /// Evaluator critical-path decomposition incl. per-device slices.
  partition::PhaseBreakdown attrib;
  /// Planning constraint the decision was made against (online adaptation:
  /// flows into flight records and the adapter's live trajectories).
  rl::ConstraintPoint constraint;
  /// Coalescing fingerprint of the executed strategy (copied from the
  /// plan so single-result callers see it).
  std::uint64_t strategy_key = 0;
  /// Bit d set: device d participated in the executed plan.
  std::uint64_t device_mask = 0;
  /// Pool replica that executed the request: 0 under a single-system
  /// ServingLayer (a pool of one); -1 for a system never put in a pool.
  int replica = -1;
};

/// A request that has run the planning half of the pipeline (health mask,
/// monitoring, decision, precompute, pre-dispatch re-planning) but not yet
/// executed. Replica-pool workers group planned requests by `strategy_key`
/// and hand same-strategy groups to execute_batch (DESIGN.md §5.10).
struct PlannedRequest {
  RequestContext ctx;
  /// Decision/cache/health fields are filled by plan_request; the
  /// execution fields (logits, latencies, outcome) by execute_batch.
  InferenceResult result;
  /// Plan-time device-health mask (empty without a fault injector).
  std::vector<bool> healthy;
  /// Device 0 was down at plan time: result is final (kFailed) and the
  /// request must not be executed.
  bool failed_fast = false;
  /// core::strategy_fingerprint of the post-remap decision — the batching
  /// coalescing key.
  std::uint64_t strategy_key = 0;
};

class MurmurationSystem {
 public:
  MurmurationSystem(core::TrainedArtifacts artifacts, SystemOptions opts);

  void set_slo(const core::Slo& slo) noexcept { opts_.slo = slo; }
  const core::Slo& slo() const noexcept { return opts_.slo; }

  /// Mutable access to the simulated network (shape links to emulate
  /// changing conditions between requests).
  netsim::Network& network() noexcept { return network_; }

  /// Attach fault tolerance: the injector drives both the executor's
  /// failover paths and the per-request device-health mask (strategy-cache
  /// invalidation, decision masking, pre-dispatch re-planning). Pass a
  /// default-constructed value to turn it all back off.
  void set_failover(const FailoverOptions& failover);
  const FailoverOptions& failover() const noexcept {
    return executor_->failover();
  }

  /// Health of every device at the current simulated time: fault-plan
  /// availability AND breaker admission (all-true without an injector).
  std::vector<bool> health_mask() const;

  double sim_time_ms() const noexcept { return sim_time_ms_; }

  /// Serve one inference request on `image` (3 x R x R, R >= 224 works for
  /// any configured resolution via center-crop). Single-caller setup: uses
  /// the system SLO and advances the internal request clock.
  InferenceResult infer(const Tensor& image);

  /// Thread-safe serving path: everything per-request (SLO, sim clock,
  /// RNG stream, degraded planning target) comes from `ctx`. Safe to call
  /// from concurrent workers; see the concurrency note atop this file.
  /// Equivalent to plan_request(ctx) followed by a one-member
  /// execute_batch — the serial and batched paths share this code.
  InferenceResult infer(const Tensor& image, const RequestContext& ctx);

  /// Planning half of infer (stages: health mask, monitoring, decision,
  /// precompute, pre-dispatch re-planning). Thread-safe like infer. When
  /// the returned request has `failed_fast` set, its result is final and
  /// it must not be passed to execute_batch.
  PlannedRequest plan_request(const RequestContext& ctx);

  /// Execution half: run planned requests as ONE strategy-coalesced batch.
  /// Every non-failed member must carry the same strategy (config + plan);
  /// the replica pool guarantees this by grouping on strategy_key and
  /// verifying equality. Throws std::invalid_argument, before any side
  /// effect, if it does not or if images and batch differ in size. Reconfigures the supernet once (the first live
  /// member's result carries the measured switch wall time, the rest 0),
  /// executes the batch, then finishes each member individually:
  /// argmax, honest per-request SLO judgment against its own ctx, outcome
  /// precedence, metrics. `images[i]` belongs to `batch[i]`; failed-fast
  /// members are skipped. Results land in batch[i].result.
  void execute_batch(std::span<const Tensor> images,
                     std::span<PlannedRequest> batch);

  /// Identify this system as replica `id` of a pool: results, ledgers and
  /// flight records carry the id (attrib.replica<id> series). -1 (the
  /// default) marks a standalone system and emits no replica series.
  void set_replica_id(int id) noexcept {
    replica_id_.store(id, std::memory_order_relaxed);
  }
  int replica_id() const noexcept {
    return replica_id_.load(std::memory_order_relaxed);
  }

  /// Attach online adaptation (runtime/adapt.h; not owned, must outlive
  /// the system or be detached with nullptr). With an adapter attached the
  /// decision path runs the adapter's current policy snapshot (one
  /// acquire-load — no new lock) with latency calibration, the monitoring
  /// stage feeds the drift detector, and every finished request flows back
  /// as a live trajectory.
  void attach_adapter(OnlineAdapter* adapter) noexcept { adapter_ = adapter; }
  OnlineAdapter* adapter() const noexcept { return adapter_; }

  /// Attach the background Pareto-front refiner (runtime/pareto_refiner.h;
  /// not owned, must outlive the system or be detached with nullptr). With
  /// one attached, front-tier misses enqueue their bucket so the refiner
  /// builds and republishes it; without one the front index stays whatever
  /// was last installed.
  void attach_front_refiner(FrontRefiner* refiner) noexcept {
    front_refiner_ = refiner;
  }
  FrontRefiner* front_refiner() const noexcept { return front_refiner_; }

  const core::StrategyCache& cache() const noexcept { return cache_; }
  /// Mutable cache access (front-index installation, refiner wiring).
  core::StrategyCache& cache() noexcept { return cache_; }
  const core::MurmurationEnv& env() const noexcept { return *artifacts_.env; }
  const rl::PolicyNetwork& policy() const noexcept {
    return *artifacts_.policy;
  }
  const rl::BucketedReplayTree* replay() const noexcept {
    return artifacts_.replay.get();
  }
  SupernetHost& host() noexcept { return host_; }
  const BreakerBoard& breakers() const noexcept { return breakers_; }
  /// Mutable board access (tests feed observations directly; production
  /// feeding happens inside infer from ExecutionReport::device_failures).
  BreakerBoard& breakers() noexcept { return breakers_; }

 private:
  core::Decision decide(const rl::ConstraintPoint& c, bool* cache_hit,
                        Rng& rng);
  InferenceResult infer_impl(const Tensor& image, const RequestContext& ctx,
                             Rng& rng);
  PlannedRequest plan_request_impl(const RequestContext& ctx, Rng& rng);
  void finish_request(PlannedRequest& pr, bool exec_degraded);
  std::vector<bool> health_mask_at(double sim_now_ms,
                                   const netsim::FaultInjector* inj) const;

  core::TrainedArtifacts artifacts_;
  SystemOptions opts_;
  netsim::Network network_;
  netsim::NetworkMonitor monitor_;
  netsim::MonitorPredictor predictor_;
  core::DecisionEngine engine_;
  core::StrategyCache cache_;
  SupernetHost host_;
  std::unique_ptr<DistributedExecutor> executor_;
  mutable BreakerBoard breakers_;  // admitted_mask transitions open->half-open
  OnlineAdapter* adapter_ = nullptr;  // optional, not owned
  FrontRefiner* front_refiner_ = nullptr;  // optional, not owned
  std::atomic<int> replica_id_{-1};
  Rng rng_;
  double sim_time_ms_ = 0.0;
  // Decision pipeline lock: monitor_/predictor_ state and the RL engine
  // (its evaluations mutate the env's shared network model).
  std::mutex decision_mutex_;
  // Execution lock: one resident supernet => one switch+run at a time.
  std::mutex exec_mutex_;
  // Guards last_health_ (mask-change cache purges).
  std::mutex health_mutex_;
  // Health mask of the previous request; a change invalidates cached
  // strategies that place work on newly dead devices.
  std::vector<bool> last_health_;
};

}  // namespace murmur::runtime
