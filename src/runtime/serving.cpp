#include "runtime/serving.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "common/log.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "supernet/search_space.h"

namespace murmur::runtime {

namespace {
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seq) {
  std::uint64_t z = base + 0x9E3779B97f4A7C15ULL * (seq + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

obs::FlightOutcome flight_outcome(ServeOutcome o) noexcept {
  switch (o) {
    case ServeOutcome::kCompleted: return obs::FlightOutcome::kCompleted;
    case ServeOutcome::kDegraded: return obs::FlightOutcome::kDegraded;
    case ServeOutcome::kShed: return obs::FlightOutcome::kShed;
    case ServeOutcome::kFailed: return obs::FlightOutcome::kFailed;
  }
  return obs::FlightOutcome::kFailed;
}
}  // namespace

const char* to_string(ServeOutcome outcome) noexcept {
  switch (outcome) {
    case ServeOutcome::kCompleted: return "completed";
    case ServeOutcome::kDegraded: return "degraded";
    case ServeOutcome::kShed: return "shed";
    case ServeOutcome::kFailed: return "failed";
  }
  return "unknown";
}

namespace {
ServingOptions normalized(ServingOptions so) {
  if (so.queue_capacity == 0) so.queue_capacity = 1;
  so.cold_start_latency_ms = std::max(0.0, so.cold_start_latency_ms);
  return so;
}

ReplicaPoolOptions pool_of_one(const ServingOptions& so) {
  ReplicaPoolOptions po;
  po.max_batch = so.max_batch;
  po.batch_window_ms = so.batch_window_ms;
  po.drain_grace_ms = so.drain_grace_ms;
  return po;
}

/// Why a request cannot be served at all, or nullptr when it is well
/// formed: the executor center-crops 1 x 3 x H x W inputs down to the
/// planned resolution, which may be any of the supernet's resolutions.
const char* malformed(const Tensor& image, double sim_arrival_ms,
                      const core::Slo& slo) {
  constexpr int kMinSide = std::ranges::max(supernet::kResolutions);
  if (image.rank() != 4 || image.dim(0) != 1 || image.dim(1) != 3 ||
      image.dim(2) < kMinSide || image.dim(3) < kMinSide)
    return "image is not 1 x 3 x H x W at the largest resolution or above";
  if (!std::isfinite(sim_arrival_ms)) return "non-finite arrival time";
  if (!std::isfinite(slo.value) || slo.value <= 0.0)
    return "SLO value is not finite and positive";
  return nullptr;
}
}  // namespace

ServingLayer::ServingLayer(MurmurationSystem& system, ServingOptions opts)
    : owned_pool_(std::make_unique<ReplicaPool>(system, pool_of_one(opts))),
      pool_(*owned_pool_),
      opts_(normalized(opts)),
      ladder_(opts.ladder) {}

ServingLayer::ServingLayer(ReplicaPool& pool, ServingOptions opts)
    : pool_(pool), opts_(normalized(opts)), ladder_(opts.ladder) {}

ServingLayer::~ServingLayer() {
  // Every pool done callback references `this`; wait until the last one
  // has resolved its promise before members are torn down.
  std::unique_lock lock(outstanding_mutex_);
  outstanding_cv_.wait(lock, [&] { return outstanding_.load() == 0; });
}

double ServingLayer::latency_estimate_ms() const {
  std::lock_guard lock(estimate_mutex_);
  return have_estimate_ ? ewma_latency_ms_ : 0.0;
}

double ServingLayer::occupancy_estimate_ms() const {
  std::lock_guard lock(estimate_mutex_);
  return have_estimate_ ? ewma_occupancy_ms_ : 0.0;
}

namespace {
bool same_class(const core::Slo& a, const core::Slo& b) {
  return a.type == b.type && a.value == b.value;
}
}  // namespace

void ServingLayer::note_completion(double sim_latency_ms,
                                   double sim_occupancy_ms,
                                   const core::Slo& slo) {
  std::lock_guard lock(estimate_mutex_);
  if (have_estimate_) {
    ewma_latency_ms_ += opts_.ewma_alpha * (sim_latency_ms - ewma_latency_ms_);
    ewma_occupancy_ms_ +=
        opts_.ewma_alpha * (sim_occupancy_ms - ewma_occupancy_ms_);
  } else {
    ewma_latency_ms_ = sim_latency_ms;
    ewma_occupancy_ms_ = sim_occupancy_ms;
    have_estimate_ = true;
  }
  ClassEstimate* cls = nullptr;
  for (auto& e : class_estimates_)
    if (same_class(e.slo, slo)) cls = &e;
  if (cls != nullptr) {
    cls->latency_ms += opts_.ewma_alpha * (sim_latency_ms - cls->latency_ms);
    cls->occupancy_ms +=
        opts_.ewma_alpha * (sim_occupancy_ms - cls->occupancy_ms);
  } else {
    class_estimates_.push_back(
        ClassEstimate{slo, sim_latency_ms, sim_occupancy_ms});
  }
  if (obs::enabled())
    obs::gauge_set("serving.occupancy_ms", ewma_occupancy_ms_);
}

double ServingLayer::class_latency_estimate_ms(const core::Slo& slo) const {
  return class_estimates(slo).first;
}

std::pair<double, double> ServingLayer::class_estimates(
    const core::Slo& slo) const {
  std::lock_guard lock(estimate_mutex_);
  for (const auto& e : class_estimates_)
    if (same_class(e.slo, slo)) return {e.latency_ms, e.occupancy_ms};
  return {have_estimate_ ? ewma_latency_ms_ : 0.0,
          have_estimate_ ? ewma_occupancy_ms_ : 0.0};
}

void ServingLayer::count(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kCompleted: completed_.fetch_add(1); break;
    case ServeOutcome::kDegraded: degraded_.fetch_add(1); break;
    case ServeOutcome::kShed: shed_.fetch_add(1); break;
    case ServeOutcome::kFailed: failed_.fetch_add(1); break;
  }
  if (obs::enabled()) {
    switch (outcome) {
      case ServeOutcome::kCompleted: obs::add("serving.completed"); break;
      case ServeOutcome::kDegraded: obs::add("serving.degraded"); break;
      case ServeOutcome::kShed: obs::add("serving.shed"); break;
      case ServeOutcome::kFailed: obs::add("serving.failed"); break;
    }
  }
}

ServingLayer::Admission ServingLayer::admit(double sim_arrival_ms,
                                            const core::Slo& slo) {
  std::lock_guard lock(admission_mutex_);
  Admission a;
  a.seq = next_seq_++;

  // Effective capacity scales with the replicas the router can actually
  // use, and a request is only hopeless when there are none.
  const std::size_t routable = pool_.routable_count();
  if (routable == 0) {
    a.shed_reason = "no_healthy_replica";
    return a;
  }
  const std::size_t capacity = opts_.queue_capacity * routable;

  // Retire requests the sim clock says have finished by this arrival.
  std::erase_if(in_system_,
                [&](double finish) { return finish <= sim_arrival_ms; });
  const std::size_t depth = in_system_.size();
  if (obs::enabled())
    obs::gauge_set("serving.queue_depth", static_cast<double>(depth));

  if (depth >= capacity) {
    a.shed_reason = "queue_full";
    return a;
  }

  // Judge and reserve by this SLO class's own cost (falls back to the
  // global EWMAs while the class is cold): a tight latency class mixed
  // with a loose class that resolves to a slower submodel must not be
  // shed against the blend of the two.
  const auto [latency_est, occupancy_est] = class_estimates(slo);
  a.slo = slo;
  // Earliest start across the pool's per-replica reservation clocks.
  // Admission is serialized on admission_mutex_ and nothing else touches
  // the clocks, so the peek below and the reserve at the end agree.
  a.est_start_ms = pool_.peek_earliest_start(sim_arrival_ms);
  if (a.est_start_ms < 0.0) {
    a.shed_reason = "no_healthy_replica";
    return a;
  }
  a.queue_wait_ms = a.est_start_ms - sim_arrival_ms;

  // Deadline feasibility: even at the deepest degradation rung, could this
  // request meet its real SLO? Optimistic before the first completion
  // (latency_est == 0): admit and learn. Only latency SLOs have a deadline
  // to be infeasible against.
  if (slo.type == core::SloType::kLatency && latency_est > 0.0) {
    const double best_case =
        a.queue_wait_ms + latency_est * ladder_.factor(ladder_.rungs());
    if (best_case > slo.value) {
      a.shed_reason = "deadline_infeasible";
      return a;
    }
  }

  a.admit = true;
  a.rung = ladder_.rung_for(static_cast<double>(depth) /
                            static_cast<double>(capacity));
  // Reserve the replica slot this request is estimated to occupy: the
  // occupancy EWMA, which equals the latency EWMA under serial serving and
  // shrinks below it once fused batches amortize per-message delays — so
  // batching raises admissible sustained load without touching the
  // deadline check above. Before the EWMA's first sample a conservative
  // prior keeps reservations nonzero-width, so a cold-start burst still
  // fills in_system_ and the queue_capacity bound holds from request zero.
  const double reserve_ms =
      occupancy_est > 0.0 ? occupancy_est : opts_.cold_start_latency_ms;
  pool_.reserve(sim_arrival_ms, reserve_ms);
  in_system_.push_back(a.est_start_ms + reserve_ms);
  return a;
}

std::future<ServeResult> ServingLayer::submit(const Tensor& image,
                                              double sim_arrival_ms) {
  return submit(image, sim_arrival_ms, pool_.slo());
}

std::future<ServeResult> ServingLayer::reject(
    const char* reason, double sim_arrival_ms,
    std::optional<std::uint64_t> seq) {
  ServeResult r;
  r.outcome = ServeOutcome::kShed;
  r.shed_reason = reason;
  r.sim_start_ms = sim_arrival_ms;
  if (std::strcmp(reason, "invalid_request") == 0)
    shed_invalid_.fetch_add(1);
  else if (std::strcmp(reason, "queue_full") == 0)
    shed_queue_full_.fetch_add(1);
  else if (std::strcmp(reason, "no_healthy_replica") == 0)
    shed_no_replica_.fetch_add(1);
  else
    shed_infeasible_.fetch_add(1);
  window_.record(/*slo_met=*/false, /*shed=*/true);
  count(r.outcome);
  if (obs::enabled()) {
    if (seq) {
      obs::FlightRecord fr;
      fr.seq = *seq;
      fr.outcome = obs::FlightOutcome::kShed;
      fr.sim_arrival_ms = sim_arrival_ms;
      fr.sim_start_ms = sim_arrival_ms;
      fr.set_shed_reason(reason);
      obs::FlightRecorder::instance().record(fr);
    }
    obs::gauge_set("serving.slo.shed_rate", window_.shed_rate());
  }
  std::promise<ServeResult> p;
  p.set_value(std::move(r));
  return p.get_future();
}

std::future<ServeResult> ServingLayer::submit(const Tensor& image,
                                              double sim_arrival_ms,
                                              const core::Slo& slo) {
  submitted_.fetch_add(1);
  if (obs::enabled()) obs::add("serving.submitted");
  if (const char* why = malformed(image, sim_arrival_ms, slo)) {
    MURMUR_LOG_DEBUG << "serving: invalid request: " << why;
    return reject("invalid_request", sim_arrival_ms, std::nullopt);
  }
  const Admission a = admit(sim_arrival_ms, slo);
  if (!a.admit) return reject(a.shed_reason, sim_arrival_ms, a.seq);

  last_rung_.store(a.rung, std::memory_order_relaxed);
  RequestContext ctx;
  ctx.slo = slo;
  ctx.plan_slo = ladder_.effective(slo, a.rung);
  ctx.sim_now_ms = a.est_start_ms;
  ctx.queue_wait_ms = a.queue_wait_ms;
  ctx.seed = mix_seed(opts_.seed, a.seq);

  auto promise = std::make_shared<std::promise<ServeResult>>();
  std::future<ServeResult> fut = promise->get_future();
  outstanding_.fetch_add(1);
  pool_.submit(image, ctx, [this, a, promise](ReplicaPool::Completion&& c) {
    promise->set_value(finalize(a, std::move(c.result), c.redispatches));
    // Decrement under the mutex: the destructor's wait predicate must not
    // observe zero (and tear members down) while this callback still has
    // member accesses ahead of it.
    std::lock_guard lock(outstanding_mutex_);
    if (outstanding_.fetch_sub(1) == 1) outstanding_cv_.notify_all();
  });
  return fut;
}

ServeResult ServingLayer::finalize(const Admission& a,
                                   InferenceResult&& inference,
                                   int redispatches) {
  ServeResult r;
  r.rung = a.rung;
  r.redispatches = redispatches;
  r.queue_wait_ms = a.queue_wait_ms;
  r.sim_start_ms = a.est_start_ms;
  r.inference = std::move(inference);
  switch (r.inference.outcome) {
    case RequestOutcome::kFailed:
      r.outcome = ServeOutcome::kFailed;
      break;
    case RequestOutcome::kSloViolated:
    case RequestOutcome::kDegraded:
      r.outcome = ServeOutcome::kDegraded;
      break;
    case RequestOutcome::kCompleted:
      r.outcome = a.rung > 0 ? ServeOutcome::kDegraded
                             : ServeOutcome::kCompleted;
      break;
  }
  // A request re-dispatched off a dead replica was served, but not
  // cleanly: failover ran above the executor, so it is at best degraded.
  if (redispatches > 0 && r.outcome == ServeOutcome::kCompleted)
    r.outcome = ServeOutcome::kDegraded;
  if (r.outcome != ServeOutcome::kFailed)
    note_completion(r.inference.sim_latency_ms, r.inference.sim_occupancy_ms,
                    a.slo);
  window_.record(r.inference.slo_met, /*shed=*/false);
  count(r.outcome);
  if (obs::enabled()) {
    obs::observe("serving.queue_wait_ms", r.queue_wait_ms);
    obs::observe("serving.rung", static_cast<double>(r.rung));
    obs::gauge_set("serving.slo.compliance", window_.compliance());
    obs::gauge_set("serving.slo.shed_rate", window_.shed_rate());
    obs::gauge_set("serving.slo.burn_rate", window_.burn_rate());
    obs::gauge_set("serving.last_rung", static_cast<double>(r.rung));

    obs::FlightRecord fr;
    fr.seq = a.seq;
    fr.strategy_key = r.inference.strategy_key;
    fr.device_mask = r.inference.device_mask;
    // The device breakers of the replica that served the request (the
    // replica board stays visible through the pool's breakers()).
    if (const MurmurationSystem* served =
            pool_.replica_system(r.inference.replica))
      fr.breaker_open_mask = served->breakers().open_mask();
    fr.replica = static_cast<std::int16_t>(r.inference.replica);
    fr.sim_arrival_ms = a.est_start_ms - a.queue_wait_ms;
    fr.sim_start_ms = a.est_start_ms;
    fr.sim_latency_ms = a.queue_wait_ms + r.inference.sim_latency_ms;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      fr.sim_phase_ms[i] = static_cast<float>(r.inference.ledger.sim_ms[i]);
      fr.wall_phase_ms[i] = static_cast<float>(r.inference.ledger.wall_ms[i]);
    }
    const auto& at = r.inference.attrib;
    int slot = 0;
    for (std::size_t d = 0;
         d < at.device_compute_ms.size() &&
         slot < obs::FlightRecord::kMaxDeviceSlices;
         ++d) {
      if (at.device_send_ms[d] <= 0.0 && at.device_recv_ms[d] <= 0.0 &&
          at.device_compute_ms[d] <= 0.0)
        continue;
      fr.dev[slot++] = obs::FlightRecord::DevicePhase{
          static_cast<std::int16_t>(d),
          static_cast<float>(at.device_send_ms[d]),
          static_cast<float>(at.device_recv_ms[d]),
          static_cast<float>(at.device_compute_ms[d])};
    }
    const auto& coords = r.inference.constraint.coords;
    fr.constraint_dims = static_cast<std::uint8_t>(std::min<std::size_t>(
        coords.size(), obs::FlightRecord::kMaxConstraintDims));
    for (int i = 0; i < fr.constraint_dims; ++i)
      fr.constraint[i] = static_cast<float>(coords[static_cast<std::size_t>(i)]);
    fr.slo_value = static_cast<float>(ladder_.effective(a.slo, a.rung).value);
    fr.outcome = flight_outcome(r.outcome);
    fr.rung = static_cast<std::int16_t>(r.rung);
    fr.cache_hit = r.inference.cache_hit;
    fr.slo_met = r.inference.slo_met;
    fr.batched = pool_.options().max_batch > 1;
    obs::FlightRecorder::instance().record(fr);
  }
  return r;
}

}  // namespace murmur::runtime
