#include "runtime/system.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "runtime/adapt.h"
#include "runtime/pareto_refiner.h"

namespace murmur::runtime {

namespace {
double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Tensor center_crop(const Tensor& image, int size) {
  if (image.rank() != 4)
    throw std::invalid_argument("center_crop: image of rank " +
                                std::to_string(image.rank()) + ", want 4");
  if (image.dim(2) == size && image.dim(3) == size) return image;
  if (image.dim(2) < size || image.dim(3) < size)
    throw std::invalid_argument(
        "center_crop: " + std::to_string(image.dim(2)) + " x " +
        std::to_string(image.dim(3)) + " image is smaller than the " +
        std::to_string(size) + " x " + std::to_string(size) + " crop");
  const int h0 = (image.dim(2) - size) / 2;
  const int w0 = (image.dim(3) - size) / 2;
  return image.crop(h0, w0, size, size);
}
}  // namespace

const char* to_string(RequestOutcome outcome) noexcept {
  switch (outcome) {
    case RequestOutcome::kCompleted: return "completed";
    case RequestOutcome::kDegraded: return "degraded";
    case RequestOutcome::kSloViolated: return "slo_violated";
    case RequestOutcome::kFailed: return "failed";
  }
  return "unknown";
}

namespace {
const char* outcome_metric(RequestOutcome outcome) noexcept {
  switch (outcome) {
    case RequestOutcome::kCompleted: return "system.outcome.completed";
    case RequestOutcome::kDegraded: return "system.outcome.degraded";
    case RequestOutcome::kSloViolated: return "system.outcome.slo_violated";
    case RequestOutcome::kFailed: return "system.outcome.failed";
  }
  return "system.outcome.unknown";
}
}  // namespace

MurmurationSystem::MurmurationSystem(core::TrainedArtifacts artifacts,
                                     SystemOptions opts)
    : artifacts_(std::move(artifacts)),
      opts_(opts),
      network_(artifacts_.env->network()),
      monitor_(network_, netsim::NetworkMonitor::Options{.seed = opts.seed}),
      predictor_(monitor_),
      engine_(*artifacts_.env, *artifacts_.policy, artifacts_.replay.get()),
      cache_(*artifacts_.env),
      host_(supernet::SupernetOptions{.width_mult = opts.exec_width_mult,
                                      .classes = opts.classes,
                                      .seed = opts.seed}),
      breakers_(artifacts_.env->network().num_devices(), opts.breaker),
      rng_(opts.seed) {
  if (opts_.telemetry) obs::set_enabled(true);
  executor_ = std::make_unique<DistributedExecutor>(host_.supernet(), network_);
  executor_->set_transport_wall_budget(opts_.transport_wall_budget_ms);
}

void MurmurationSystem::set_failover(const FailoverOptions& failover) {
  executor_->set_failover(failover);
  std::lock_guard lock(health_mutex_);
  last_health_.clear();  // force a fresh health comparison next request
}

std::vector<bool> MurmurationSystem::health_mask_at(
    double sim_now_ms, const netsim::FaultInjector* inj) const {
  std::vector<bool> healthy(network_.num_devices(), true);
  if (!inj) return healthy;
  for (std::size_t d = 0; d < healthy.size(); ++d)
    healthy[d] = inj->device_up(d, sim_now_ms);
  const std::vector<bool> admitted = breakers_.admitted_mask(sim_now_ms);
  for (std::size_t d = 0; d < healthy.size(); ++d)
    healthy[d] = healthy[d] && admitted[d];
  return healthy;
}

std::vector<bool> MurmurationSystem::health_mask() const {
  return health_mask_at(sim_time_ms_, executor_->failover().injector);
}

core::Decision MurmurationSystem::decide(const rl::ConstraintPoint& c,
                                         bool* cache_hit, Rng& rng) {
  const core::LatencyCalibration* calib =
      adapter_ ? &adapter_->calibration() : nullptr;
  if (opts_.use_cache) {
    MURMUR_SPAN("cache_lookup", "runtime",
                obs::maybe_histogram("stage.cache_lookup_ms"));
    if (auto hit = cache_.get(c)) {
      // A cache bucket spans a range of SLO values (the env grid is
      // coarse: ~(slo_max-slo_min)/grid_points per bucket), so the stored
      // decision may have been planned against a looser constraint than
      // this request's. Re-judge it against *this* constraint and only
      // reuse it when it still holds — a tighter-SLO request must not
      // inherit a bucket-mate's slower plan. Unsatisfied entries are kept
      // as-is: they are already the bucket's best-effort answer, and
      // re-deciding every request under an unsatisfiable SLO would put a
      // full policy rollout back on the hot path.
      if (calib && calib->active()) {
        // Re-judge under the CURRENT calibration, from the raw model
        // outcome — a decision cached before the bias surfaced must not
        // keep serving on the model's stale optimism.
        hit->predicted = hit->model;
        hit->predicted.latency_ms *= calib->factor(
            partition::plan_participants(hit->strategy.plan,
                                         hit->strategy.config,
                                         network_.num_devices()));
      }
      const bool ok = artifacts_.env->satisfies(c, hit->predicted);
      if (ok || !hit->satisfied) {
        hit->satisfied = ok;
        *cache_hit = true;
        return *std::move(hit);
      }
      if (obs::enabled()) obs::add("cache.requalified");
    }
    // Tier 2 (DESIGN.md §5.15): a precomputed Pareto front answers the SLO
    // query by binary search — no rollout, no store sweep, and no decision
    // mutex. Hits are memoized into tier 1 so bucket-mates skip even the
    // front search. Inert until an index is installed.
    if (auto fd = cache_.front_query(c, calib)) {
      *cache_hit = true;
      if (obs::enabled()) obs::add("decision.front_hit");
      cache_.put(c, *fd);
      return *std::move(fd);
    }
    if (cache_.front_index() != nullptr) {
      if (obs::enabled()) obs::add("decision.front_miss");
      // Uncovered bucket: hand it to the background refiner and fall
      // through to the policy path for this request.
      if (front_refiner_) front_refiner_->request(c);
    }
  }
  *cache_hit = false;
  core::Decision d;
  {
    // The RL engine's evaluations re-apply conditions to the env's shared
    // network model; serialize decisions across serving workers.
    std::lock_guard lock(decision_mutex_);
    if (adapter_) {
      // Online adaptation: decide with the currently published policy
      // snapshot. current() is one acquire-load; the engine is four
      // pointers, so building it per decision adds no locking and no
      // allocation to the hot path.
      const PolicySnapshot* snap = adapter_->current();
      const core::DecisionEngine engine(*artifacts_.env, snap->policy(),
                                        snap->replay(), calib);
      d = engine.decide(c, rng);
    } else {
      d = engine_.decide(c, rng);
    }
  }
  if (opts_.use_cache) cache_.put(c, d);
  return d;
}

InferenceResult MurmurationSystem::infer(const Tensor& image) {
  RequestContext ctx;
  ctx.slo = opts_.slo;
  ctx.plan_slo = opts_.slo;
  sim_time_ms_ += 50.0;  // request inter-arrival advance
  ctx.sim_now_ms = sim_time_ms_;
  return infer_impl(image, ctx, rng_);
}

InferenceResult MurmurationSystem::infer(const Tensor& image,
                                         const RequestContext& ctx) {
  Rng rng(ctx.seed);
  return infer_impl(image, ctx, rng);
}

InferenceResult MurmurationSystem::infer_impl(const Tensor& image,
                                              const RequestContext& ctx,
                                              Rng& rng) {
  MURMUR_SPAN("infer", "runtime", obs::maybe_histogram("stage.request_ms"));
  PlannedRequest pr = plan_request_impl(ctx, rng);
  if (pr.failed_fast) return std::move(pr.result);
  // A one-member batch: the executor has one walk, so a single request and
  // a coalesced group run the same code.
  execute_batch(std::span<const Tensor>(&image, 1),
                std::span<PlannedRequest>(&pr, 1));
  return std::move(pr.result);
}

PlannedRequest MurmurationSystem::plan_request(const RequestContext& ctx) {
  Rng rng(ctx.seed);
  return plan_request_impl(ctx, rng);
}

PlannedRequest MurmurationSystem::plan_request_impl(const RequestContext& ctx,
                                                    Rng& rng) {
  PlannedRequest pr;
  pr.ctx = ctx;
  InferenceResult& result = pr.result;
  const double sim_now = ctx.sim_now_ms;

  // 0. Device health (fault-aware deployments only): refresh the mask
  //    (fault plan AND breaker admission), purge cached strategies that
  //    place work on newly dead devices.
  netsim::FaultInjector* const inj = executor_->failover().injector;
  if (inj) {
    pr.healthy = health_mask_at(sim_now, inj);
    if (!pr.healthy[0]) {
      // The local (serving) device itself is down: the request cannot be
      // accepted, let alone degraded.
      result.outcome = RequestOutcome::kFailed;
      pr.failed_fast = true;
      if (obs::enabled()) {
        obs::add("system.requests");
        obs::add(outcome_metric(result.outcome));
      }
      return pr;
    }
    std::lock_guard lock(health_mutex_);
    if (pr.healthy != last_health_) {
      result.cache_purged = cache_.invalidate_if([&](const core::Decision& d) {
        return partition::plan_uses_unhealthy(d.strategy.plan,
                                              d.strategy.config, pr.healthy);
      });
      if (result.cache_purged > 0 && obs::enabled())
        obs::add("runtime.failover.cache_purged", result.cache_purged);
      last_health_ = pr.healthy;
    }
  }

  // 1. Monitoring: refresh estimates of every remote link. With an
  //    adapter attached, each probe is paired with the predictor's
  //    forecast made BEFORE it, and the residual feeds the per-device
  //    drift detector; a fired detector re-fits the monitor (drop the
  //    pre-shift history) and purges cached strategies touching the
  //    drifted device. All under the existing decision mutex — the drift
  //    path adds no new lock.
  netsim::NetworkConditions est;
  {
    MURMUR_SPAN("monitor", "runtime",
                obs::maybe_histogram("stage.monitor_ms"));
    std::lock_guard lock(decision_mutex_);
    if (adapter_) {
      obs::add("monitor.probes",
               network_.num_devices() > 0 ? network_.num_devices() - 1 : 0);
      for (std::size_t d = 1; d < network_.num_devices(); ++d) {
        const netsim::MonitorPredictor::Forecast f = predictor_.forecast(d, 0.0);
        const netsim::MonitorSample s = monitor_.probe(d, sim_now);
        if (adapter_->observe_network(d, f.bandwidth_mbps, s.bandwidth_mbps,
                                      f.delay_ms, s.delay_ms)) {
          monitor_.reset_device(d);
          monitor_.probe(d, sim_now);  // seed the re-fit from post-shift truth
          const std::size_t purged =
              cache_.invalidate_if([&](const core::Decision& dec) {
                const std::vector<bool> used = partition::plan_participants(
                    dec.strategy.plan, dec.strategy.config,
                    network_.num_devices());
                return d < used.size() && used[d];
              });
          if (purged > 0) obs::add("adapt.cache_purged", purged);
          // Drift on device d also poisons every front bucket whose
          // strategies place work there: tombstone those buckets only, so
          // unaffected conditions keep their fast path.
          const std::size_t fronts = cache_.invalidate_fronts_touching(d);
          if (fronts > 0) obs::add("adapt.front_buckets_purged", fronts);
        }
      }
    } else {
      monitor_.probe_all(sim_now);
    }
    est = monitor_.estimate();
  }
  if (inj) {
    // Dead devices look like worst-case links to the decision module, so
    // the policy steers work away from them without a bespoke action mask.
    const auto& eo = artifacts_.env->options();
    for (std::size_t d = 1; d < est.num_devices(); ++d)
      if (!pr.healthy[d]) {
        est.bandwidth_mbps[d] = eo.bw_min_mbps;
        est.delay_ms[d] = eo.delay_max_ms;
      }
  }

  // 2. Decision (cache -> RL policy), planned against the (possibly
  //    ladder-degraded) plan_slo.
  const auto t_dec = std::chrono::steady_clock::now();
  {
    MURMUR_SPAN("decision", "runtime",
                obs::maybe_histogram("stage.decision_ms"));
    const rl::ConstraintPoint c =
        artifacts_.env->make_constraint(ctx.plan_slo.value, est);
    result.decision = decide(c, &result.cache_hit, rng);
    result.constraint = c;
  }
  result.decision_wall_ms = elapsed_ms(t_dec);

  // 3. Precompute for forecast conditions (fills the cache for where the
  //    network is heading; paper §5.1).
  if (opts_.use_predictor && opts_.use_cache) {
    MURMUR_SPAN("precompute", "runtime",
                obs::maybe_histogram("stage.precompute_ms"));
    netsim::NetworkConditions fc;
    {
      std::lock_guard lock(decision_mutex_);
      fc = predictor_.forecast_all(opts_.precompute_horizon_ms);
    }
    const rl::ConstraintPoint cf =
        artifacts_.env->make_constraint(ctx.plan_slo.value, fc);
    bool hit = false;
    (void)decide(cf, &hit, rng);
  }

  // 3b. Pre-dispatch re-planning: even a cached/fresh decision may place
  //     work on devices the health mask says are dead — move those entries
  //     to survivors before the executor ever sends to them.
  if (inj) {
    result.replanned_entries = partition::remap_unhealthy(
        result.decision.strategy.plan, result.decision.strategy.config,
        pr.healthy);
    if (result.replanned_entries > 0 && obs::enabled())
      obs::add("runtime.failover.replanned",
               static_cast<std::uint64_t>(result.replanned_entries));
  }

  // The coalescing key is taken post-remap: two requests batch together
  // only if the strategies they will actually execute are the same.
  pr.strategy_key = core::strategy_fingerprint(result.decision.strategy.config,
                                               result.decision.strategy.plan);
  return pr;
}

void MurmurationSystem::execute_batch(std::span<const Tensor> images,
                                      std::span<PlannedRequest> batch) {
  if (images.size() != batch.size())
    throw std::invalid_argument(
        "execute_batch: " + std::to_string(images.size()) + " images for " +
        std::to_string(batch.size()) + " requests");
  std::vector<std::size_t> live;
  live.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!batch[i].failed_fast) live.push_back(i);
  if (live.empty()) return;

  const auto& strategy = batch[live.front()].result.decision.strategy;
  for (const std::size_t i : live)
    if (batch[i].result.decision.strategy.config != strategy.config ||
        batch[i].result.decision.strategy.plan != strategy.plan)
      throw std::invalid_argument(
          "execute_batch: member " + std::to_string(i) +
          " carries a different strategy than the first live member");
  netsim::FaultInjector* const inj = executor_->failover().injector;
  std::vector<bool> exec_degraded(live.size(), false);

  // 4+5. Model reconfig + distributed execution. One resident supernet:
  //      the switch and the batch it serves are a single critical section.
  //      The switch happens ONCE per batch — its measured wall time is
  //      carried by the first member, the rest report 0 (amortized).
  {
    std::lock_guard lock(exec_mutex_);
    const double switch_wall_ms =
        host_.switch_submodel(strategy.config);
    MURMUR_SPAN("execute", "runtime",
                obs::maybe_histogram("stage.execute_ms"));
    std::vector<Tensor> crops;
    std::vector<double> sim_starts;
    crops.reserve(live.size());
    sim_starts.reserve(live.size());
    for (const std::size_t i : live) {
      crops.push_back(center_crop(images[i], strategy.config.resolution));
      sim_starts.push_back(batch[i].ctx.sim_now_ms);
    }
    BatchExecutionReport brep =
        executor_->run_batch(crops, strategy.config, strategy.plan, sim_starts);
    for (std::size_t k = 0; k < live.size(); ++k) {
      PlannedRequest& pr = batch[live[k]];
      InferenceResult& result = pr.result;
      ExecutionReport& rep = brep.reports[k];
      result.switch_wall_ms = k == 0 ? switch_wall_ms : 0.0;
      result.logits = std::move(rep.logits);
      result.sim_latency_ms = rep.sim_latency_ms;
      result.sim_occupancy_ms = rep.sim_occupancy_ms;
      result.exec_wall_ms = rep.wall_ms;
      result.transport = rep.transport;
      result.redispatched_tiles = rep.redispatched_tiles;
      result.local_fallbacks = rep.local_fallbacks;
      result.failover_penalty_ms = rep.failover_penalty_ms;
      result.attrib = std::move(rep.attrib);
      exec_degraded[k] = rep.degraded;

      // Feed the breakers: every remote device that participated in (or
      // was failed out of) this member reports success or failure.
      // device_failures is filled only under an injector.
      if (inj && !rep.device_failures.empty()) {
        const std::vector<bool> used =
            partition::plan_participants(result.decision.strategy.plan,
                                         result.decision.strategy.config,
                                         rep.device_failures.size());
        for (std::size_t d = 1; d < rep.device_failures.size(); ++d) {
          const bool failed = rep.device_failures[d] > 0;
          if (used[d] || failed) breakers_.record(d, failed, pr.ctx.sim_now_ms);
        }
      }
    }
  }
  for (std::size_t k = 0; k < live.size(); ++k)
    finish_request(batch[live[k]], exec_degraded[k]);
}

void MurmurationSystem::finish_request(PlannedRequest& pr, bool exec_degraded) {
  InferenceResult& result = pr.result;
  result.predicted_class = 0;
  for (int i = 1; i < result.logits.dim(1); ++i)
    if (result.logits.at(0, i) > result.logits.at(0, result.predicted_class))
      result.predicted_class = i;
  // The SLO check is honest: judged against the caller's real SLO, with
  // sim-time burned in the admission queue charged to the latency side.
  result.slo_met = pr.ctx.slo.satisfied_by(
      result.decision.predicted.accuracy,
      pr.ctx.queue_wait_ms + result.sim_latency_ms);
  const bool degraded = exec_degraded || result.replanned_entries > 0 ||
                        result.cache_purged > 0;
  if (!result.slo_met)
    result.outcome = RequestOutcome::kSloViolated;
  else if (degraded)
    result.outcome = RequestOutcome::kDegraded;
  else
    result.outcome = RequestOutcome::kCompleted;
  result.strategy_key = pr.strategy_key;
  result.replica = replica_id();
  if (adapter_ || obs::enabled()) {
    const std::vector<bool> used =
        partition::plan_participants(result.decision.strategy.plan,
                                     result.decision.strategy.config,
                                     network_.num_devices());
    for (std::size_t d = 0; d < used.size() && d < 64; ++d)
      if (used[d]) result.device_mask |= std::uint64_t{1} << d;
    if (adapter_) {
      // Close the loop: every finished request becomes a live trajectory
      // (observed latency, SLO verdict) and a calibration observation.
      OnlineAdapter::ServingSample sample;
      sample.constraint = result.constraint;
      sample.actions = artifacts_.env->encode(result.decision.strategy);
      sample.model_latency_ms = result.decision.model.latency_ms;
      sample.observed_latency_ms = result.sim_latency_ms;
      sample.accuracy = result.decision.predicted.accuracy;
      sample.slo_met = result.slo_met;
      sample.participants = used;
      adapter_->observe_outcome(sample);
    }
  }
  if (obs::enabled()) {
    obs::add("system.requests");
    obs::add(result.slo_met ? "system.slo_met" : "system.slo_missed");
    obs::add(outcome_metric(result.outcome));
    obs::observe("stage.sim_latency_ms", result.sim_latency_ms);
    obs::gauge_set("cache.hit_rate", cache_.hit_rate());
    obs::gauge_set("cache.size", static_cast<double>(cache_.size()));

    // Phase ledger (DESIGN.md §5.11): attribute every sim-clock ms of the
    // observed latency. Sim side: queue wait + the evaluator's critical-
    // path decomposition + the failover surcharge; the batching window is
    // free on the sim clock by construction (the occupancy model amortizes
    // coalescing instead of charging a wait). Wall side: the per-stage
    // wall timers already measured along the pipeline.
    obs::PhaseLedger& led = result.ledger;
    led.charge(obs::Phase::kQueueWait, pr.ctx.queue_wait_ms);
    if (!result.attrib.device_compute_ms.empty()) {
      led.charge(obs::Phase::kTransportSend, result.attrib.send_ms);
      led.charge(obs::Phase::kTransportRecv, result.attrib.recv_ms);
      led.charge(obs::Phase::kCompute, result.attrib.compute_ms);
      led.charge(obs::Phase::kGather, result.attrib.gather_ms);
    } else {
      // Telemetry flipped on mid-request: the executor skipped the
      // decomposition. Lump the evaluated latency into compute so the
      // phase-sum invariant still holds.
      led.charge(obs::Phase::kCompute,
                 result.sim_latency_ms - result.failover_penalty_ms);
    }
    led.charge(obs::Phase::kFailover, result.failover_penalty_ms);
    led.charge_wall(obs::Phase::kDecision, result.decision_wall_ms);
    led.charge_wall(obs::Phase::kSwitch, result.switch_wall_ms);
    led.charge_wall(obs::Phase::kCompute, result.exec_wall_ms);

    std::vector<obs::DeviceSlice> slices;
    const auto& at = result.attrib;
    for (std::size_t d = 0; d < at.device_compute_ms.size(); ++d) {
      if (at.device_send_ms[d] <= 0.0 && at.device_recv_ms[d] <= 0.0 &&
          at.device_compute_ms[d] <= 0.0)
        continue;
      slices.push_back(obs::DeviceSlice{static_cast<int>(d),
                                        at.device_send_ms[d],
                                        at.device_recv_ms[d],
                                        at.device_compute_ms[d]});
    }
    const double observed = pr.ctx.queue_wait_ms + result.sim_latency_ms;
    obs::note_request(led, slices, result.strategy_key, observed,
                      result.replica);
    obs::check_invariant(led.sim_total(), observed);
  }
}

}  // namespace murmur::runtime
