// Replica-sharded serving tier (DESIGN.md §5.13), and the repo's one
// execution scheduler: every ServingLayer fronts a ReplicaPool, a single
// system being a pool of one.
//
// A ReplicaPool fronts N replicas, each a full MurmurationSystem (its own
// resident SupernetHost, executor and device breaker board), with a single
// router thread and one worker thread per replica:
//
//   * Routing: the router plans each request on a planner replica (the
//     lowest-id live one), in submission order, then routes the planned
//     request to the replica whose last-executed strategy key matches —
//     strategy affinity keeps a hot submodel resident instead of thrashing
//     reconfiguration — falling back to the lowest-load routable replica
//     (ties to the lowest id). Plans are plain data (config + placement),
//     so planning on one replica and executing on another is sound: the
//     simulated device topologies are identical across replicas.
//
//   * Health: the §5.9 breaker machinery is generalized from devices to
//     replicas — one BreakerBoard entry per replica (exempt_origin off:
//     every replica is breakable), fed by per-request failures. An open
//     replica takes no traffic until its cooldown elapses and a single
//     half-open probe request readmits it; the router deliberately steers
//     a non-affinity request at the probed replica so the grant is spent,
//     not burned. A pool of one has nowhere else to route, so its replica
//     is the board's exempt origin and never trips.
//
//   * Membership (state machine, all transitions logged):
//
//       kJoining ──(warm-up: configure + probe succeeds)──> kServing
//       kJoining ──(warm-up probe fails)────────────────--> kDead
//       kServing ──drain()──> kDraining ──(queue empty)──> kDead
//       kServing / kDraining ──kill()──────────────────--> kDead
//
//     kill() models a crash: the victim's queued requests are re-planned
//     and re-routed to survivors (bounded by max_redispatches), and a
//     group caught mid-execution on the victim is re-dispatched when the
//     worker notices the state — no admitted request is lost or hung. A
//     drained replica finishes its queue first; a joining replica takes no
//     traffic until its warm-up probe inference succeeds.
//
//   * Admission support: per-replica busy-until reservation clocks on the
//     simulated clock. The serving layer reserves against the earliest-
//     available routable replica and scales its queue capacity by the
//     routable count, shedding with "no_healthy_replica" only when the
//     pool has nobody to route to.
//
// Strategy-coalesced micro-batching (§5.10) happens in the replica worker,
// the only place requests are grouped: each worker greedily coalesces
// consecutive same-strategy queue entries up to max_batch within the
// sim-clock batch window, so affinity routing compounds with coalescing —
// same-key requests converge on the same replica and then share one
// supernet switch. Each group is counted under exactly one flush reason.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/breaker.h"
#include "runtime/system.h"

namespace murmur::runtime {

struct ReplicaPoolOptions {
  /// Upper bound on per-replica strategy-coalesced micro-batches (1 =
  /// serve each routed request individually, as a group of one).
  std::size_t max_batch = 1;
  /// Sim-clock width of an open per-replica batch group: a queued request
  /// whose estimated start lies more than this past the group's first
  /// member closes the group (bounds added batching latency on the sim
  /// clock; the group also closes when full or when the queue runs dry, so
  /// light load pays no window wait at all).
  double batch_window_ms = 25.0;
  /// Wall-clock grace a worker waits for further routed arrivals before
  /// drain-flushing an open, non-full group. 0 flushes the instant the
  /// queue runs dry — the lowest-latency choice, but under a steady
  /// trickle it fragments groups.
  double drain_grace_ms = 0.0;
  /// Per-replica circuit breakers. The pool sets exempt_origin itself:
  /// off, so every replica is individually breakable — except in a pool of
  /// one, whose only replica never trips.
  BreakerOptions breaker{};
  /// Crash tolerance bound: a request re-dispatched off dead replicas more
  /// than this many times resolves as kFailed instead of looping.
  int max_redispatches = 2;
  /// Input for the join warm-up probe inference. Empty (default) skips the
  /// probe: a joined replica flips straight to kServing after
  /// configuration, which tests use for determinism; production rigs pass
  /// a real image so a broken joiner is caught before it takes traffic.
  Tensor warmup_image;
};

enum class ReplicaState : std::uint8_t { kJoining, kServing, kDraining, kDead };

const char* to_string(ReplicaState state) noexcept;

class ReplicaPool {
 public:
  /// One finished (or terminally failed) request, delivered to the done
  /// callback exactly once per submitted request.
  struct Completion {
    InferenceResult result;
    /// Replica that executed the request (-1 if it never reached one).
    int replica = -1;
    /// Times the request was re-dispatched off a dead replica.
    int redispatches = 0;
  };
  using DoneFn = std::function<void(Completion&&)>;

  /// Every seed replica starts kServing (the caller constructed and
  /// therefore warmed them). Replica ids are assigned in vector order and
  /// stamped into each system (set_replica_id).
  ReplicaPool(std::vector<std::unique_ptr<MurmurationSystem>> replicas,
              ReplicaPoolOptions opts);

  /// A pool of one over a caller-owned system, which must outlive the
  /// pool (ServingLayer's single-system mode). The system becomes replica
  /// 0; being the only replica, it is exempt from the replica breaker.
  ReplicaPool(MurmurationSystem& system, ReplicaPoolOptions opts);

  /// Destruction drains: queued requests still resolve (routed, executed
  /// or terminally failed) before the router and workers join.
  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  /// Hand one admitted request to the router. `done` fires exactly once,
  /// on a pool thread; it must not call back into submit().
  void submit(Tensor image, RequestContext ctx, DoneFn done);

  // ---- Membership -------------------------------------------------------

  /// Add a replica at runtime. It enters kJoining and warms up on its own
  /// thread — configure (and probe, when warmup_image is set) at sim time
  /// `sim_now_ms` — before flipping to kServing; a failed probe lands it
  /// in kDead without ever taking traffic. Returns the new replica id.
  int join(std::unique_ptr<MurmurationSystem> system, double sim_now_ms);

  /// Graceful exit: stop routing to `id`, let its worker finish the
  /// queue, then transition to kDead. No-op on dead replicas.
  void drain(int id);

  /// Crash `id` now: queued requests are re-planned and re-routed to
  /// survivors; a group mid-execution is re-dispatched when its worker
  /// observes the death. No-op on dead replicas.
  void kill(int id);

  ReplicaState state(int id) const;
  /// Block until replica `id` reaches `s` (or `wall_timeout_ms` elapses);
  /// true when the state was reached. Membership transitions are cv-
  /// signalled, so tests wait deterministically instead of polling.
  bool await_state(int id, ReplicaState s, double wall_timeout_ms) const;

  // ---- Admission support (serving layer, under its admission mutex) -----

  /// Replicas currently eligible for routing: kServing and not
  /// breaker-open. Admission scales queue capacity by this.
  std::size_t routable_count() const;

  /// Earliest sim time a request arriving at `sim_arrival_ms` could start
  /// on some routable replica (its reservation clock). Negative when no
  /// replica is routable.
  double peek_earliest_start(double sim_arrival_ms) const;

  /// Reserve `reserve_ms` of occupancy on the earliest-available routable
  /// replica's clock; returns the estimated start (negative when no
  /// replica is routable and nothing was reserved).
  double reserve(double sim_arrival_ms, double reserve_ms);

  // ---- Introspection ----------------------------------------------------

  std::size_t size() const;
  /// Effective options (zero max_batch and negative windows normalized).
  const ReplicaPoolOptions& options() const noexcept { return opts_; }
  /// The pool's SLO (the planner replica's system SLO); serving's
  /// SLO-less submit overload uses it.
  core::Slo slo() const;
  /// Replica `id`'s system, nullptr when out of range. Tests and tools
  /// shape per-replica networks through this; routing state is pool-owned.
  MurmurationSystem* replica_system(int id);

  const BreakerBoard& breakers() const noexcept { return breakers_; }
  BreakerBoard& breakers() noexcept { return breakers_; }

  struct ReplicaInfo {
    int id = 0;
    ReplicaState state = ReplicaState::kDead;
    /// Queued + executing requests on this replica.
    int load = 0;
    std::uint64_t executed = 0;
    /// Last executed strategy key (the affinity target).
    std::uint64_t affinity_key = 0;
    BreakerBoard::State breaker = BreakerBoard::State::kClosed;
    /// Lifetime supernet switches on this replica's host.
    std::uint64_t switches = 0;
    /// Switch requests held because the submodel was already resident —
    /// the direct payoff of strategy-affinity routing.
    std::uint64_t switches_held = 0;
  };
  std::vector<ReplicaInfo> snapshot() const;

  // Lifetime routing/robustness counters.
  std::uint64_t planned() const noexcept { return planned_.load(); }
  std::uint64_t affinity_routed() const noexcept {
    return affinity_routed_.load();
  }
  std::uint64_t spill_routed() const noexcept { return spill_routed_.load(); }
  std::uint64_t probe_routed() const noexcept { return probe_routed_.load(); }
  std::uint64_t redispatched() const noexcept { return redispatched_.load(); }
  std::uint64_t unroutable_failures() const noexcept {
    return unroutable_failures_.load();
  }
  /// Groups handed to execute_batch (a lone request is a group of one).
  std::uint64_t batches() const noexcept { return batches_.load(); }
  /// Requests that rode along in a group (sum over groups of size - 1).
  std::uint64_t coalesced() const noexcept { return coalesced_.load(); }
  /// Group closes by reason; every group counts under exactly one, so the
  /// four sum to batches(). Full: the group hit max_batch. Window: the next
  /// same-strategy entry lies past the sim-clock window. Key: the next
  /// entry carries another strategy. Drain: the queue ran dry (after the
  /// drain grace) or the replica stopped taking traffic.
  std::uint64_t full_flushes() const noexcept { return full_flushes_.load(); }
  std::uint64_t window_flushes() const noexcept {
    return window_flushes_.load();
  }
  std::uint64_t key_flushes() const noexcept { return key_flushes_.load(); }
  std::uint64_t drain_flushes() const noexcept {
    return drain_flushes_.load();
  }
  std::uint64_t joins() const noexcept { return joins_.load(); }
  std::uint64_t kills() const noexcept { return kills_.load(); }
  std::uint64_t drains() const noexcept { return drains_.load(); }
  /// Total supernet switches across every replica host.
  std::uint64_t total_switches() const;
  /// Total held (already-resident) switch requests across every host.
  std::uint64_t total_held_switches() const;

 private:
  /// An unplanned request in the router inbox (fresh submits and
  /// re-dispatches off dead replicas both land here).
  struct PoolRequest {
    Tensor image;
    RequestContext ctx;
    DoneFn done;
    int redispatches = 0;
  };
  /// A planned request parked on a replica queue.
  struct Routed {
    Tensor image;
    PlannedRequest plan;
    DoneFn done;
    int redispatches = 0;
    /// Wall clock (monotonic_ms) when the request joined the replica
    /// queue: the worker charges the wait until its group starts to the
    /// wall-side batch-window phase.
    double enqueue_wall_ms = 0.0;
  };
  struct Replica {
    int id = 0;
    /// The replica's system; owned through `owned` unless the pool was
    /// built over a caller-owned system.
    MurmurationSystem* system = nullptr;
    std::unique_ptr<MurmurationSystem> owned;
    std::atomic<ReplicaState> state{ReplicaState::kServing};
    std::atomic<std::uint64_t> affinity_key{0};
    std::atomic<int> load{0};
    std::atomic<std::uint64_t> executed{0};
    /// Guards queue; state transitions additionally take state_mutex_.
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Routed> queue;
    double busy_until_ms = 0.0;  // reservation clock; under reserve_mutex_
    std::thread worker;
  };

  /// Register a replica in `state` under the next id and stamp the id into
  /// its system. `owned` is null for a caller-owned system.
  Replica* add_replica(MurmurationSystem& system,
                       std::unique_ptr<MurmurationSystem> owned,
                       ReplicaState state);
  /// Normalize the options, then start one worker per seed replica and
  /// the router.
  void start();
  void router_loop();
  void route(PoolRequest req);
  void worker_loop(Replica& r);
  /// Run one popped group on `r` and resolve it: done per member, or a
  /// re-dispatch when the replica died mid-execution.
  void execute_group(Replica& r, std::vector<Routed>& group);
  /// Requeue a request to the inbox for re-planning on a survivor, or
  /// terminally fail it when the bound is hit / the pool is stopping.
  void redispatch(Tensor image, RequestContext ctx, DoneFn done,
                  int redispatches);
  void fail_request(const RequestContext& ctx, DoneFn& done,
                    int redispatches);
  /// Wake await_state waiters after a state store (empty critical section
  /// on state_mutex_ orders the store before the notify).
  void signal_state() const;
  Replica* rep(int id) const;
  /// Lowest-id live (non-dead) replica for planning; nullptr if none.
  Replica* planner() const;

  ReplicaPoolOptions opts_;
  BreakerBoard breakers_;

  /// Guards replicas_ growth; entries are stable (unique_ptr).
  mutable std::mutex members_mutex_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  /// Guards state transitions + wakes await_state waiters.
  mutable std::mutex state_mutex_;
  mutable std::condition_variable state_cv_;

  mutable std::mutex reserve_mutex_;

  mutable std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;
  std::deque<PoolRequest> inbox_;
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> planned_{0}, affinity_routed_{0},
      spill_routed_{0}, probe_routed_{0}, redispatched_{0},
      unroutable_failures_{0}, batches_{0}, coalesced_{0}, full_flushes_{0},
      window_flushes_{0}, key_flushes_{0}, drain_flushes_{0}, joins_{0},
      kills_{0}, drains_{0};

  // Last member: joined before anything above is destroyed (the router
  // drains the inbox on stop, so queued requests still resolve).
  std::thread router_;
};

}  // namespace murmur::runtime
