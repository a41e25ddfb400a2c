#include "runtime/replica_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/log.h"
#include "obs/metrics.h"

namespace murmur::runtime {

const char* to_string(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::kJoining: return "joining";
    case ReplicaState::kServing: return "serving";
    case ReplicaState::kDraining: return "draining";
    case ReplicaState::kDead: return "dead";
  }
  return "unknown";
}

namespace {
BreakerOptions replica_breaker(BreakerOptions b, bool pool_of_one) {
  // Every replica is breakable, including 0 — except the only replica of
  // a pool of one, which has nobody to fail over to.
  b.exempt_origin = pool_of_one;
  return b;
}
}  // namespace

ReplicaPool::ReplicaPool(
    std::vector<std::unique_ptr<MurmurationSystem>> replicas,
    ReplicaPoolOptions opts)
    : opts_(opts),
      breakers_(replicas.size(), replica_breaker(opts.breaker, false)) {
  for (auto& sys : replicas) {
    MurmurationSystem& s = *sys;
    add_replica(s, std::move(sys), ReplicaState::kServing);
  }
  start();
}

ReplicaPool::ReplicaPool(MurmurationSystem& system, ReplicaPoolOptions opts)
    : opts_(opts), breakers_(1, replica_breaker(opts.breaker, true)) {
  add_replica(system, nullptr, ReplicaState::kServing);
  start();
}

ReplicaPool::Replica* ReplicaPool::add_replica(
    MurmurationSystem& system, std::unique_ptr<MurmurationSystem> owned,
    ReplicaState state) {
  std::lock_guard lock(members_mutex_);
  auto up = std::make_unique<Replica>();
  up->id = static_cast<int>(replicas_.size());
  up->system = &system;
  up->owned = std::move(owned);
  up->system->set_replica_id(up->id);
  up->state.store(state);
  replicas_.push_back(std::move(up));
  return replicas_.back().get();
}

void ReplicaPool::start() {
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  opts_.batch_window_ms = std::max(0.0, opts_.batch_window_ms);
  opts_.drain_grace_ms = std::max(0.0, opts_.drain_grace_ms);
  opts_.max_redispatches = std::max(0, opts_.max_redispatches);
  for (auto& up : replicas_) {
    Replica* r = up.get();
    r->worker = std::thread([this, r] {
      set_thread_name("replica/" + std::to_string(r->id));
      worker_loop(*r);
    });
  }
  router_ = std::thread([this] {
    set_thread_name("replica/router");
    router_loop();
  });
}

ReplicaPool::~ReplicaPool() {
  {
    std::lock_guard lock(inbox_mutex_);
    stop_.store(true);
  }
  inbox_cv_.notify_all();
  if (router_.joinable()) router_.join();
  for (auto& up : replicas_) {
    {
      std::lock_guard lock(up->mutex);
    }
    up->cv.notify_all();
    if (up->worker.joinable()) up->worker.join();
  }
  // Workers may have re-dispatched into the inbox after the router exited
  // (a kill racing shutdown); nothing will route them now, so resolve them
  // terminally instead of dropping their callbacks.
  std::deque<PoolRequest> leftovers;
  {
    std::lock_guard lock(inbox_mutex_);
    leftovers.swap(inbox_);
  }
  for (auto& q : leftovers) fail_request(q.ctx, q.done, q.redispatches);
}

void ReplicaPool::submit(Tensor image, RequestContext ctx, DoneFn done) {
  {
    std::lock_guard lock(inbox_mutex_);
    if (stop_.load()) {
      // Submitting into a stopping pool is a caller bug, but the contract
      // — done fires exactly once — holds regardless.
      fail_request(ctx, done, 0);
      return;
    }
    inbox_.push_back(PoolRequest{std::move(image), std::move(ctx),
                                 std::move(done), 0});
  }
  inbox_cv_.notify_one();
}

// ---- Membership ----------------------------------------------------------

int ReplicaPool::join(std::unique_ptr<MurmurationSystem> system,
                      double sim_now_ms) {
  MurmurationSystem& s = *system;
  Replica* r = add_replica(s, std::move(system), ReplicaState::kJoining);
  breakers_.grow_to(static_cast<std::size_t>(r->id) + 1);
  {
    std::lock_guard lock(reserve_mutex_);
    r->busy_until_ms = sim_now_ms;
  }
  joins_.fetch_add(1);
  if (obs::enabled()) obs::add("pool.joins");
  MURMUR_LOG_INFO << "replica pool: replica " << r->id << " joining at sim "
                  << sim_now_ms << " ms";
  r->worker = std::thread([this, r, sim_now_ms] {
    set_thread_name("replica/" + std::to_string(r->id));
    // Warm-up: configure the resident supernet and prove the replica can
    // serve (one probe inference) before it takes any traffic. The probe's
    // strategy key seeds the affinity target, so a fresh joiner starts
    // attracting matching requests immediately.
    if (!opts_.warmup_image.empty()) {
      RequestContext ctx;
      ctx.slo = r->system->slo();
      ctx.plan_slo = ctx.slo;
      ctx.sim_now_ms = sim_now_ms;
      ctx.seed = 0x9E3779B9ULL + static_cast<std::uint64_t>(r->id);
      const InferenceResult probe = r->system->infer(opts_.warmup_image, ctx);
      if (probe.outcome == RequestOutcome::kFailed) {
        MURMUR_LOG_WARN << "replica pool: replica " << r->id
                        << " failed its warm-up probe; join aborted";
        {
          std::lock_guard lock(r->mutex);
          r->state.store(ReplicaState::kDead);
        }
        signal_state();
        return;
      }
      r->affinity_key.store(probe.strategy_key);
    }
    {
      std::lock_guard lock(r->mutex);
      // kill()/drain() during warm-up wins: a joiner condemned before it
      // ever served goes straight to dead.
      if (r->state.load() == ReplicaState::kJoining)
        r->state.store(ReplicaState::kServing);
    }
    signal_state();
    // A drain() that landed mid-warm-up leaves the state kDraining; enter
    // the loop anyway so the replica exits through the normal
    // kDraining -> kDead path instead of wedging.
    const ReplicaState s = r->state.load();
    if (s == ReplicaState::kServing || s == ReplicaState::kDraining)
      worker_loop(*r);
  });
  return r->id;
}

void ReplicaPool::drain(int id) {
  Replica* r = rep(id);
  if (!r) return;
  {
    std::lock_guard lock(r->mutex);
    const ReplicaState s = r->state.load();
    if (s == ReplicaState::kDead || s == ReplicaState::kDraining) return;
    r->state.store(ReplicaState::kDraining);
  }
  signal_state();
  r->cv.notify_all();
  drains_.fetch_add(1);
  if (obs::enabled()) obs::add("pool.drains");
  MURMUR_LOG_INFO << "replica pool: replica " << id << " draining";
}

void ReplicaPool::kill(int id) {
  Replica* r = rep(id);
  if (!r) return;
  std::deque<Routed> backlog;
  {
    std::lock_guard lock(r->mutex);
    if (r->state.load() == ReplicaState::kDead) return;
    r->state.store(ReplicaState::kDead);
    backlog.swap(r->queue);
  }
  signal_state();
  r->cv.notify_all();
  kills_.fetch_add(1);
  if (obs::enabled()) obs::add("pool.kills");
  MURMUR_LOG_WARN << "replica pool: replica " << id << " killed; "
                  << backlog.size() << " queued request(s) re-dispatching";
  if (!backlog.empty())
    r->load.fetch_sub(static_cast<int>(backlog.size()));
  // Queued victims are re-planned on a survivor (the plan may reference
  // the victim's view of the world; replanning is the robust path).
  for (Routed& m : backlog)
    redispatch(std::move(m.image), m.plan.ctx, std::move(m.done),
               m.redispatches + 1);
}

ReplicaState ReplicaPool::state(int id) const {
  const Replica* r = rep(id);
  return r ? r->state.load() : ReplicaState::kDead;
}

bool ReplicaPool::await_state(int id, ReplicaState s,
                              double wall_timeout_ms) const {
  Replica* r = rep(id);
  if (!r) return false;
  std::unique_lock lock(state_mutex_);
  return state_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(wall_timeout_ms),
      [&] { return r->state.load() == s; });
}

void ReplicaPool::signal_state() const {
  {
    std::lock_guard lock(state_mutex_);
  }
  state_cv_.notify_all();
}

// ---- Admission support ---------------------------------------------------

std::size_t ReplicaPool::routable_count() const {
  std::lock_guard lock(members_mutex_);
  std::size_t n = 0;
  for (const auto& up : replicas_) {
    if (up->state.load() != ReplicaState::kServing) continue;
    if (breakers_.state(static_cast<std::size_t>(up->id)) ==
        BreakerBoard::State::kOpen)
      continue;
    ++n;
  }
  return n;
}

double ReplicaPool::peek_earliest_start(double sim_arrival_ms) const {
  std::scoped_lock lock(members_mutex_, reserve_mutex_);
  double best = -1.0;
  for (const auto& up : replicas_) {
    if (up->state.load() != ReplicaState::kServing) continue;
    if (breakers_.state(static_cast<std::size_t>(up->id)) ==
        BreakerBoard::State::kOpen)
      continue;
    const double start = std::max(sim_arrival_ms, up->busy_until_ms);
    if (best < 0.0 || start < best) best = start;
  }
  return best;
}

double ReplicaPool::reserve(double sim_arrival_ms, double reserve_ms) {
  std::scoped_lock lock(members_mutex_, reserve_mutex_);
  Replica* best = nullptr;
  double best_start = 0.0;
  for (const auto& up : replicas_) {
    if (up->state.load() != ReplicaState::kServing) continue;
    if (breakers_.state(static_cast<std::size_t>(up->id)) ==
        BreakerBoard::State::kOpen)
      continue;
    const double start = std::max(sim_arrival_ms, up->busy_until_ms);
    if (!best || start < best_start) {
      best = up.get();
      best_start = start;
    }
  }
  if (!best) return -1.0;
  best->busy_until_ms = best_start + std::max(0.0, reserve_ms);
  return best_start;
}

// ---- Introspection -------------------------------------------------------

std::size_t ReplicaPool::size() const {
  std::lock_guard lock(members_mutex_);
  return replicas_.size();
}

core::Slo ReplicaPool::slo() const {
  std::lock_guard lock(members_mutex_);
  for (const auto& up : replicas_)
    if (up->state.load() != ReplicaState::kDead) return up->system->slo();
  return replicas_.empty() ? core::Slo{} : replicas_.front()->system->slo();
}

MurmurationSystem* ReplicaPool::replica_system(int id) {
  Replica* r = rep(id);
  return r ? r->system : nullptr;
}

std::vector<ReplicaPool::ReplicaInfo> ReplicaPool::snapshot() const {
  std::lock_guard lock(members_mutex_);
  std::vector<ReplicaInfo> out;
  out.reserve(replicas_.size());
  for (const auto& up : replicas_) {
    ReplicaInfo info;
    info.id = up->id;
    info.state = up->state.load();
    info.load = up->load.load();
    info.executed = up->executed.load();
    info.affinity_key = up->affinity_key.load();
    info.breaker = breakers_.state(static_cast<std::size_t>(up->id));
    info.switches = up->system->host().switch_count();
    info.switches_held = up->system->host().held_switches();
    out.push_back(info);
  }
  return out;
}

std::uint64_t ReplicaPool::total_switches() const {
  std::lock_guard lock(members_mutex_);
  std::uint64_t n = 0;
  for (const auto& up : replicas_) n += up->system->host().switch_count();
  return n;
}

std::uint64_t ReplicaPool::total_held_switches() const {
  std::lock_guard lock(members_mutex_);
  std::uint64_t n = 0;
  for (const auto& up : replicas_) n += up->system->host().held_switches();
  return n;
}

// ---- Internals -----------------------------------------------------------

ReplicaPool::Replica* ReplicaPool::rep(int id) const {
  std::lock_guard lock(members_mutex_);
  if (id < 0 || static_cast<std::size_t>(id) >= replicas_.size())
    return nullptr;
  return replicas_[static_cast<std::size_t>(id)].get();
}

ReplicaPool::Replica* ReplicaPool::planner() const {
  std::lock_guard lock(members_mutex_);
  // Prefer a serving replica; a draining one still plans fine (planning is
  // read-mostly and the plan runs elsewhere); a joining one is the last
  // resort (its pipeline is live mid-warm-up, infer/plan are thread-safe).
  for (auto pass : {ReplicaState::kServing, ReplicaState::kDraining,
                    ReplicaState::kJoining}) {
    for (const auto& up : replicas_)
      if (up->state.load() == pass) return up.get();
  }
  return nullptr;
}

void ReplicaPool::fail_request(const RequestContext& ctx, DoneFn& done,
                               int redispatches) {
  unroutable_failures_.fetch_add(1);
  if (obs::enabled()) obs::add("pool.unroutable_failures");
  MURMUR_LOG_WARN << "replica pool: no routable replica for request at sim "
                  << ctx.sim_now_ms << " ms after " << redispatches
                  << " redispatch(es); failing it";
  InferenceResult res;
  res.outcome = RequestOutcome::kFailed;
  res.slo_met = false;
  if (done) done(Completion{std::move(res), -1, redispatches});
}

void ReplicaPool::redispatch(Tensor image, RequestContext ctx, DoneFn done,
                             int redispatches) {
  if (redispatches > opts_.max_redispatches) {
    fail_request(ctx, done, redispatches);
    return;
  }
  {
    std::lock_guard lock(inbox_mutex_);
    if (stop_.load()) {
      // The router may already be drained; resolve terminally rather than
      // strand the callback (the destructor also sweeps, this is earlier).
      fail_request(ctx, done, redispatches);
      return;
    }
    inbox_.push_back(PoolRequest{std::move(image), std::move(ctx),
                                 std::move(done), redispatches});
  }
  redispatched_.fetch_add(1);
  if (obs::enabled()) obs::add("pool.redispatched");
  inbox_cv_.notify_one();
}

void ReplicaPool::router_loop() {
  for (;;) {
    PoolRequest req;
    {
      std::unique_lock lock(inbox_mutex_);
      inbox_cv_.wait(lock, [&] { return stop_.load() || !inbox_.empty(); });
      if (inbox_.empty()) break;  // stop requested and fully drained
      req = std::move(inbox_.front());
      inbox_.pop_front();
    }
    route(std::move(req));
  }
}

void ReplicaPool::route(PoolRequest req) {
  Replica* pl = planner();
  if (!pl) {
    fail_request(req.ctx, req.done, req.redispatches);
    return;
  }
  // Plan on the planner replica; the strategy (config + placement) is
  // plain data and executes identically on any replica, so routing is a
  // pure placement decision after this point.
  PlannedRequest plan = pl->system->plan_request(req.ctx);
  planned_.fetch_add(1);
  if (plan.failed_fast) {
    plan.result.replica = pl->id;
    req.done(Completion{std::move(plan.result), pl->id, req.redispatches});
    return;
  }

  // Candidate scan. admitted_mask both transitions open -> half-open at
  // cooldown and grants the single half-open probe; when a probe was
  // granted this scan, the request is deliberately steered there so the
  // grant is spent on real traffic instead of burned.
  std::vector<bool> admitted = breakers_.admitted_mask(req.ctx.sim_now_ms);
  Replica* affinity = nullptr;
  Replica* probe = nullptr;
  Replica* spill = nullptr;
  int affinity_load = 0;
  int spill_load = 0;
  {
    std::lock_guard lock(members_mutex_);
    for (const auto& up : replicas_) {
      Replica& r = *up;
      if (r.state.load() != ReplicaState::kServing) continue;
      const auto id = static_cast<std::size_t>(r.id);
      if (id < admitted.size() && !admitted[id]) continue;
      if (!probe && breakers_.state(id) == BreakerBoard::State::kHalfOpen)
        probe = &r;
      const int load = r.load.load();
      if (r.affinity_key.load() == plan.strategy_key &&
          (!affinity || load < affinity_load)) {
        affinity = &r;
        affinity_load = load;
      }
      if (!spill || load < spill_load) {
        spill = &r;
        spill_load = load;
      }
    }
  }
  Replica* target = affinity ? affinity : (probe ? probe : spill);
  if (!target) {
    fail_request(req.ctx, req.done, req.redispatches);
    return;
  }
  if (target == affinity)
    affinity_routed_.fetch_add(1);
  else if (target == probe)
    probe_routed_.fetch_add(1);
  else
    spill_routed_.fetch_add(1);
  if (obs::enabled())
    obs::add(target == affinity ? "pool.route.affinity"
                                : (target == probe ? "pool.route.probe"
                                                   : "pool.route.spill"));

  {
    std::lock_guard lock(target->mutex);
    if (target->state.load() != ReplicaState::kServing) {
      // Killed/drained between the scan and the push: try again on
      // whoever is left (counts as a redispatch so a kill storm cannot
      // loop forever).
      redispatch(std::move(req.image), req.ctx, std::move(req.done),
                 req.redispatches + 1);
      return;
    }
    target->queue.push_back(Routed{std::move(req.image), std::move(plan),
                                   std::move(req.done), req.redispatches,
                                   monotonic_ms()});
    target->load.fetch_add(1);
  }
  target->cv.notify_one();
}

void ReplicaPool::worker_loop(Replica& r) {
  for (;;) {
    std::vector<Routed> group;
    {
      std::unique_lock lock(r.mutex);
      r.cv.wait(lock, [&] {
        return stop_.load() || !r.queue.empty() ||
               r.state.load() != ReplicaState::kServing;
      });
      if (r.queue.empty()) {
        const ReplicaState s = r.state.load();
        if (s == ReplicaState::kDead) return;
        if (s == ReplicaState::kDraining) {
          r.state.store(ReplicaState::kDead);
          lock.unlock();
          signal_state();
          MURMUR_LOG_INFO << "replica pool: replica " << r.id
                          << " drained and left";
          return;
        }
        if (stop_.load()) return;
        continue;  // spurious wake
      }
      if (r.state.load() == ReplicaState::kDead) {
        // kill() swipes the queue under r.mutex, so remnants here mean a
        // future edit broke that invariant — re-dispatch defensively.
        std::deque<Routed> remnants;
        remnants.swap(r.queue);
        r.load.fetch_sub(static_cast<int>(remnants.size()));
        lock.unlock();
        for (Routed& m : remnants)
          redispatch(std::move(m.image), m.plan.ctx, std::move(m.done),
                     m.redispatches + 1);
        return;
      }

      // Pop a strategy-coalesced group: consecutive same-strategy entries
      // within the sim-clock batch window, up to max_batch (§5.10 — the
      // fingerprint is the fast path, strategy equality the contract).
      group.reserve(opts_.max_batch);
      group.push_back(std::move(r.queue.front()));
      r.queue.pop_front();
      const PlannedRequest& head = group.front().plan;
      const char* reason = "pool.flush.full";
      std::atomic<std::uint64_t>* flushes = &full_flushes_;
      while (group.size() < opts_.max_batch) {
        if (r.queue.empty()) {
          // Drain grace: wait a beat for another arrival before running a
          // fragment — a steady trickle of submissions would otherwise
          // fragment every group the instant the queue runs dry.
          if (opts_.drain_grace_ms > 0.0 && !stop_.load() &&
              r.state.load() == ReplicaState::kServing)
            r.cv.wait_for(lock,
                          std::chrono::duration<double, std::milli>(
                              opts_.drain_grace_ms),
                          [&] { return stop_.load() || !r.queue.empty(); });
          if (r.queue.empty()) {
            reason = "pool.flush.drain";
            flushes = &drain_flushes_;
            break;
          }
        }
        const PlannedRequest& next = r.queue.front().plan;
        if (next.strategy_key != head.strategy_key ||
            next.result.decision.strategy.config !=
                head.result.decision.strategy.config ||
            next.result.decision.strategy.plan !=
                head.result.decision.strategy.plan) {
          reason = "pool.flush.key";
          flushes = &key_flushes_;
          break;
        }
        if (next.ctx.sim_now_ms > head.ctx.sim_now_ms + opts_.batch_window_ms) {
          reason = "pool.flush.window";
          flushes = &window_flushes_;
          break;
        }
        group.push_back(std::move(r.queue.front()));
        r.queue.pop_front();
      }
      flushes->fetch_add(1);
      if (obs::enabled()) obs::add(reason);
    }
    execute_group(r, group);
  }
}

void ReplicaPool::execute_group(Replica& r, std::vector<Routed>& group) {
  std::vector<Tensor> images;
  std::vector<PlannedRequest> batch;
  images.reserve(group.size());
  batch.reserve(group.size());
  for (Routed& m : group) {
    images.push_back(std::move(m.image));
    batch.push_back(std::move(m.plan));
  }
  batches_.fetch_add(1);
  coalesced_.fetch_add(group.size() - 1);
  r.executed.fetch_add(group.size());
  if (obs::enabled()) {
    obs::observe("pool.batch.size", static_cast<double>(group.size()));
    obs::add("pool.batches");
    if (group.size() > 1) obs::add("pool.coalesced", group.size() - 1);
  }

  const double exec_start_wall_ms = monotonic_ms();
  bool threw = false;
  try {
    r.system->execute_batch(images, batch);
  } catch (const std::exception& e) {
    // A group execute_batch rejects (malformed image, mismatched batch)
    // fails its members; the worker keeps serving the queue behind it.
    MURMUR_LOG_WARN << "replica pool: replica " << r.id << " failed a group of "
                    << group.size() << ": " << e.what();
    threw = true;
    for (PlannedRequest& pr : batch) {
      pr.result.outcome = RequestOutcome::kFailed;
      pr.result.slo_met = false;
      pr.result.replica = r.id;
    }
  }

  if (!threw && r.state.load() == ReplicaState::kDead) {
    // Crashed mid-execution: the results die with the replica. Hand the
    // group back for re-planning on survivors — this is the in-flight
    // half of crash tolerance (the queued half lives in kill()).
    r.load.fetch_sub(static_cast<int>(group.size()));
    for (std::size_t i = 0; i < group.size(); ++i)
      redispatch(std::move(images[i]), batch[i].ctx,
                 std::move(group[i].done), group[i].redispatches + 1);
    return;
  }

  if (!threw) r.affinity_key.store(batch.front().strategy_key);
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (obs::enabled()) {
      // Wall-side batching-window phase: how long this member sat parked
      // in the replica queue until its group *started* executing. The
      // group's execution span is already attributed once, through each
      // member's exec_wall_ms share — charging completion-time deltas here
      // would bill that span to every member again. The sim clock charges
      // nothing by construction (occupancy amortizes coalescing).
      const double parked_ms =
          std::max(0.0, exec_start_wall_ms - group[i].enqueue_wall_ms);
      batch[i].result.ledger.charge_wall(obs::Phase::kBatchWindow, parked_ms);
      // execute_batch already aggregated this request's ledger, before the
      // group-level wait was known: feed the late phase to its histogram.
      obs::observe("attrib.wall.batch_window", parked_ms);
    }
    breakers_.record(static_cast<std::size_t>(r.id),
                     batch[i].result.outcome == RequestOutcome::kFailed,
                     batch[i].ctx.sim_now_ms);
    group[i].done(Completion{std::move(batch[i].result), r.id,
                             group[i].redispatches});
  }
  r.load.fetch_sub(static_cast<int>(group.size()));
}

}  // namespace murmur::runtime
