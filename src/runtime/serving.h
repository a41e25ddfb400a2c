// Concurrent, self-protecting serving layer (DESIGN.md §5.9): admission
// control in front of a ReplicaPool. A single system is served as a pool
// of one, so every admitted request takes the same path — the pool's
// router plans it in submission order and a replica worker executes it,
// coalesced with same-strategy neighbours (DESIGN.md §5.10, §5.13).
//
// At submit time — before any work is spent — the layer rejects malformed
// requests, then estimates where the request would start on the simulated
// clock (the pool's per-replica busy-until reservation clocks: execution
// is serialized on each replica's single resident supernet) and what it
// would cost (an EWMA of observed sim latencies). Requests the estimate
// says cannot possibly meet their SLO, and requests arriving to a full
// queue, are shed immediately. Between "fine" and "shed" sits the
// graceful-degradation ladder: rising queue pressure tightens the SLO the
// decision module plans against, so the policy picks cheaper submodels and
// the system sheds load by serving worse before it sheds load by serving
// nothing.
//
// Admission bookkeeping runs entirely on the simulated clock and is
// updated sequentially under the admission mutex, so for a fixed arrival
// sequence the admit/degrade/shed decisions are deterministic regardless
// of thread interleaving. SLO judgment and outcomes stay strictly
// per-request, whatever group a request executed in.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/decision.h"
#include "obs/attrib.h"
#include "runtime/replica_pool.h"
#include "runtime/system.h"

namespace murmur::runtime {

struct ServingOptions {
  /// No effect: the pool behind the layer runs one router plus one worker
  /// per replica, and each replica executes one group at a time anyway.
  /// Kept only because the perfbench deployment still sets it; the next
  /// change to the benchmark should drop it.
  int workers = 4;
  /// Maximum requests in the system (queued + executing) on the simulated
  /// clock; arrivals beyond this are shed with reason "queue_full".
  std::size_t queue_capacity = 16;
  /// Degradation ladder applied as queue pressure rises.
  core::DegradationLadder::Options ladder{};
  /// Smoothing for the per-request sim-latency estimate.
  double ewma_alpha = 0.3;
  /// Conservative reservation width (sim-ms) used on the busy-until clock
  /// before the first completion seeds the EWMA. Without it, cold-start
  /// reservations would be zero-width and a burst would never see a full
  /// queue; with it, `queue_capacity` binds from request zero. Does not
  /// participate in the deadline-feasibility check (cold admission stays
  /// optimistic: admit and learn).
  double cold_start_latency_ms = 50.0;
  /// Base for per-request RNG streams.
  std::uint64_t seed = 2024;
  /// Coalescing of the single-system constructor's pool of one; the
  /// ReplicaPool constructor uses the pool's own options instead. See
  /// ReplicaPoolOptions for each field. max_batch 1 (default) executes
  /// every request as a group of one.
  std::size_t max_batch = 1;
  double batch_window_ms = 25.0;
  /// Throughput-oriented deployments (the serving bench, murmurctl
  /// overload) set a few milliseconds.
  double drain_grace_ms = 0.0;
};

/// What the serving layer owed the caller in the end. Exactly one per
/// submitted request.
enum class ServeOutcome {
  kCompleted,  // served within the honest SLO, at the honest rung
  kDegraded,   // served, but at a degraded rung or past the SLO
  kShed,       // rejected at submit (invalid / queue full / infeasible)
  kFailed,     // accepted but unservable (e.g. local device down)
};

const char* to_string(ServeOutcome outcome) noexcept;

struct ServeResult {
  ServeOutcome outcome = ServeOutcome::kCompleted;
  /// Ladder rung the request was planned at (0 = honest SLO).
  int rung = 0;
  /// Times the request was re-dispatched off a dead replica (pool mode;
  /// always 0 in single-system mode). Nonzero forces at least kDegraded.
  int redispatches = 0;
  /// Estimated sim-time spent queued (charged into the SLO check).
  double queue_wait_ms = 0.0;
  /// Position on the simulated clock where execution was estimated to
  /// start (arrival + queue_wait_ms).
  double sim_start_ms = 0.0;
  /// Why the request was shed ("" when it was not).
  const char* shed_reason = "";
  /// Full pipeline result; default-constructed for shed requests.
  InferenceResult inference;
};

class ServingLayer {
 public:
  /// Serve one caller-owned system (which must outlive this layer) through
  /// a pool of one that this layer owns, coalescing per opts.max_batch /
  /// batch_window_ms / drain_grace_ms. The system is stamped replica 0.
  ServingLayer(MurmurationSystem& system, ServingOptions opts);

  /// Pool mode (DESIGN.md §5.13): admission fronts a caller-owned
  /// ReplicaPool, which must outlive this layer. Queue capacity scales
  /// with the routable-replica count, and a request is shed with
  /// "no_healthy_replica" only when the pool has nobody to route to.
  /// Coalescing follows the pool's own options.
  ServingLayer(ReplicaPool& pool, ServingOptions opts);

  /// Destruction drains: every submitted future resolves before the layer
  /// (and an owned pool) goes away.
  ~ServingLayer();

  ServingLayer(const ServingLayer&) = delete;
  ServingLayer& operator=(const ServingLayer&) = delete;

  /// Submit one request arriving at `sim_arrival_ms` under the system SLO.
  /// Always returns a future that resolves to exactly one ServeOutcome;
  /// shed requests resolve immediately without touching the pipeline. A
  /// malformed request — image not 1 x 3 x H x W with H, W >= the largest
  /// supernet resolution, non-finite arrival, or an SLO value that is not
  /// finite and positive — is shed with "invalid_request" before
  /// admission: it reserves nothing and takes no sequence number.
  std::future<ServeResult> submit(const Tensor& image, double sim_arrival_ms);

  /// Same, with a per-request SLO.
  std::future<ServeResult> submit(const Tensor& image, double sim_arrival_ms,
                                  const core::Slo& slo);

  // Lifetime counters (every submitted request lands in exactly one of
  // completed/degraded/shed/failed once its future resolves).
  std::uint64_t submitted() const noexcept { return submitted_.load(); }
  std::uint64_t completed() const noexcept { return completed_.load(); }
  std::uint64_t degraded() const noexcept { return degraded_.load(); }
  std::uint64_t shed() const noexcept { return shed_.load(); }
  std::uint64_t failed() const noexcept { return failed_.load(); }

  /// Current smoothed sim-latency estimate (0 before any completion).
  /// Global across SLO classes; admission additionally keeps per-class
  /// estimates so a mixed-SLO workload judges each class by its own cost.
  double latency_estimate_ms() const;

  /// This SLO class's smoothed sim-latency estimate — what admission
  /// judges a request of this class against. Falls back to the global
  /// estimate while the class has no completions of its own.
  double class_latency_estimate_ms(const core::Slo& slo) const;

  /// Current smoothed per-request executor-occupancy estimate (0 before
  /// any completion). Tracks InferenceResult::sim_occupancy_ms, so it
  /// equals latency_estimate_ms() under serial serving and falls below it
  /// once fused batches amortize per-message delays; admission reserves
  /// this on the busy-until clock while deadline feasibility stays on the
  /// latency estimate.
  double occupancy_estimate_ms() const;

  const ServingOptions& options() const noexcept { return opts_; }

  // Batching statistics: the pool's counters (a lone request is a group
  // of one, so with max_batch == 1 batches() counts executed requests).
  /// Groups handed to execute_batch.
  std::uint64_t batches() const noexcept { return pool_.batches(); }
  /// Requests executed in those groups.
  std::uint64_t batched_requests() const noexcept {
    return pool_.batches() + pool_.coalesced();
  }
  /// Requests that rode along in a group (sum over groups of size - 1):
  /// each saved a supernet reconfiguration and a standalone executor run.
  std::uint64_t coalesced() const noexcept { return pool_.coalesced(); }
  /// Group closes by reason (see ReplicaPool); they sum to batches().
  std::uint64_t full_flushes() const noexcept { return pool_.full_flushes(); }
  std::uint64_t window_flushes() const noexcept {
    return pool_.window_flushes();
  }
  std::uint64_t key_flushes() const noexcept { return pool_.key_flushes(); }
  std::uint64_t drain_flushes() const noexcept {
    return pool_.drain_flushes();
  }

  // Observability plane (DESIGN.md §5.11).
  /// Sheds by reason (invalid_request + queue_full + deadline_infeasible +
  /// no_healthy_replica == shed()).
  std::uint64_t shed_invalid() const noexcept { return shed_invalid_.load(); }
  std::uint64_t shed_queue_full() const noexcept {
    return shed_queue_full_.load();
  }
  std::uint64_t shed_infeasible() const noexcept {
    return shed_infeasible_.load();
  }
  /// Sheds because no replica was routable.
  std::uint64_t shed_no_replica() const noexcept {
    return shed_no_replica_.load();
  }
  /// Ladder rung of the most recently admitted request.
  int last_rung() const noexcept { return last_rung_.load(); }
  /// Rolling-window SLO compliance / shed rate / burn rate over the most
  /// recent requests (window size 512; see obs::RollingOutcomeWindow).
  double slo_compliance() const { return window_.compliance(); }
  double slo_shed_rate() const { return window_.shed_rate(); }
  double slo_burn_rate(double target = 0.95) const {
    return window_.burn_rate(target);
  }

 private:
  struct Admission {
    bool admit = false;
    const char* shed_reason = "";
    int rung = 0;
    double est_start_ms = 0.0;
    double queue_wait_ms = 0.0;
    std::uint64_t seq = 0;
    /// The request's honest SLO — the estimate class its completion feeds.
    core::Slo slo{};
  };

  /// Per-SLO-class latency/occupancy EWMAs. A mixed workload (e.g. a tight
  /// latency class interleaved with a loose one that resolves to a richer,
  /// slower submodel) would otherwise judge the tight class's deadline
  /// feasibility against a blended estimate and shed it wholesale; each
  /// class is judged by — and reserves — what requests like it actually
  /// cost. The globals keep serving the public accessors and act as the
  /// cold-class fallback. One entry per distinct SLO, so the table stays
  /// tiny; guarded by estimate_mutex_.
  struct ClassEstimate {
    core::Slo slo{};
    double latency_ms = 0.0;
    double occupancy_ms = 0.0;
  };

  /// Sim-clock admission decision; sequential under admission_mutex_.
  Admission admit(double sim_arrival_ms, const core::Slo& slo);
  void note_completion(double sim_latency_ms, double sim_occupancy_ms,
                       const core::Slo& slo);
  /// This SLO class's EWMAs, falling back to the globals for a class that
  /// has not completed a request yet. Returns {latency, occupancy}.
  std::pair<double, double> class_estimates(const core::Slo& slo) const;
  void count(ServeOutcome outcome);
  /// Resolve a request shed before it reached the pool. `seq` is its
  /// admission sequence number; a request rejected before admission has
  /// none and leaves no flight record (records are keyed by seq).
  std::future<ServeResult> reject(const char* reason, double sim_arrival_ms,
                                  std::optional<std::uint64_t> seq);
  /// Map a finished pipeline result to the caller-facing ServeResult:
  /// outcome mapping, EWMA update, lifetime counters, per-request metrics.
  /// Runs in the pool's done callback; `redispatches > 0` (a request
  /// re-dispatched off a dead replica) forces at least kDegraded.
  ServeResult finalize(const Admission& a, InferenceResult&& inference,
                       int redispatches);

  /// Set by the single-system constructor only. First member on purpose:
  /// destroyed last, after the destructor body has waited out every done
  /// callback, so the pool's idle threads join once nothing can call back.
  std::unique_ptr<ReplicaPool> owned_pool_;
  ReplicaPool& pool_;
  ServingOptions opts_;
  core::DegradationLadder ladder_;

  std::mutex admission_mutex_;
  // est_finish sim-times of admitted requests; entries <= the next arrival
  // are retired at its admission. Size == sim-clock queue depth.
  std::vector<double> in_system_;
  std::uint64_t next_seq_ = 0;

  mutable std::mutex estimate_mutex_;
  double ewma_latency_ms_ = 0.0;
  double ewma_occupancy_ms_ = 0.0;
  bool have_estimate_ = false;
  std::vector<ClassEstimate> class_estimates_;

  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, degraded_{0},
      shed_{0}, failed_{0};
  std::atomic<std::uint64_t> shed_invalid_{0}, shed_queue_full_{0},
      shed_infeasible_{0}, shed_no_replica_{0};
  std::atomic<int> last_rung_{0};
  /// Requests whose done callback has not fired yet; the destructor waits
  /// for zero so no callback touches a dead `this`.
  std::atomic<std::uint64_t> outstanding_{0};
  std::mutex outstanding_mutex_;
  std::condition_variable outstanding_cv_;
  /// Rolling SLO/shed window; internally mutex-protected (finalize runs on
  /// pool workers concurrently).
  obs::RollingOutcomeWindow window_{512};
};

}  // namespace murmur::runtime
