// The three workloads: deployment set-up, seeded request schedules and the
// closed-loop generator that serves them.
//
// Every workload is open-loop on the sim clock (arrival times come from a
// seeded schedule, whatever the host's speed) and closed-loop on the wall
// clock (one generator thread keeps kWindow requests outstanding).
#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "netsim/scenario.h"

namespace murmur::perfbench {

namespace {

// steady / pool: the metro-edge shaping of the repo's serving bench.
constexpr double kEdgeMbps = 1000.0;
constexpr double kEdgeDelayMs = 10.0;
constexpr double kTightSloMs = 50.0;
constexpr double kLooseSloMs = 100.0;
/// Sim spacing of steady and pool arrivals. It stays above the serial sim
/// latency (about 36 ms steady, and per replica in the pool), so admission
/// never queues and the sim clock does not depend on how the wall clock
/// happened to form batches (the occupancy estimate admission reserves
/// follows batch sizes). The spacing is not jittered: arrival times feed
/// the monitor's predictor, whose forecasts pick which plan the memo keeps.
constexpr double kSteadySpacingMs = 45.0;
constexpr double kPoolSpacingMs = 45.0;
/// drift: requests per epoch; links change only between epochs.
constexpr int kDriftEpoch = kWindow;
/// drift: epochs per random walk before it restarts from a fresh link.
constexpr int kWalkEpochs = 3;
/// drift: the band the links wander in, inside the env's envelope (5-500
/// Mbps, 5-100 ms) but clear of its extremes, where every plan misses.
constexpr double kDriftMinMbps = 30.0, kDriftMaxMbps = 150.0;
constexpr double kDriftMinDelayMs = 5.0, kDriftMaxDelayMs = 30.0;
constexpr int kLinkStrata = 10;
constexpr int kWarmupRequests = 2 * kWindow;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97f4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Seeded request schedule of one workload. The same seed gives the same
/// images, arrival gaps, SLO draws and (drift) link trace.
class Schedule {
 public:
  struct Next {
    int image = 0;
    double arrival_ms = 0.0;
    core::Slo slo{};
    bool epoch_start = false;  // drift: reshape links before this request
  };

  Schedule(const std::string& workload, std::uint64_t seed,
           const core::EnvOptions& env, double sim_start_ms)
      : workload_(workload),
        rng_(seed),
        link_rng_(mix(seed, 0x11f)),
        dynamics_(walk_options(seed)),
        env_(env),
        t_(sim_start_ms) {}

  Next next() {
    Next n;
    n.image = static_cast<int>(rng_.uniform_index(kImages));
    if (workload_ == "steady") {
      t_ += kSteadySpacingMs;
      n.slo = core::Slo::latency_ms(kTightSloMs);
    } else if (workload_ == "pool") {
      // Interleaved classes, seeded: two thirds of the requests are tight.
      t_ += kPoolSpacingMs;
      n.slo = core::Slo::latency_ms(rng_.bernoulli(1.0 / 3.0) ? kLooseSloMs
                                                              : kTightSloMs);
    } else {
      // Wider than the largest SLO: nothing queues on the sim clock, so
      // compliance measures the decisions, not admission timing.
      t_ += 2.0 * env_.slo_max;
      // Stratified across the env's latency range: the epoch's requests
      // take one SLO from each of kDriftEpoch equal slices, in seeded order.
      const auto k = static_cast<std::size_t>(count_ % kDriftEpoch);
      if (k == 0) {
        n.epoch_start = true;
        for (std::size_t i = 0; i < kDriftEpoch; ++i)
          strata_[i] = static_cast<int>(i);
        for (std::size_t i = kDriftEpoch - 1; i > 0; --i)
          std::swap(strata_[i], strata_[rng_.uniform_index(i + 1)]);
      }
      const double width = (env_.slo_max - env_.slo_min) / kDriftEpoch;
      n.slo = core::Slo::latency_ms(env_.slo_min +
                                    width * (strata_[k] + rng_.uniform()));
    }
    n.arrival_ms = t_;
    ++count_;
    return n;
  }
  double sim_end_ms() const { return t_ + 5000.0; }

  /// drift, between epochs: one step of the seeded random walk; every
  /// kWalkEpochs epochs the walk restarts from a fresh seeded link, so one
  /// run averages over several walks instead of following a single one.
  /// Restart points are stratified like the SLOs: every kLinkStrata walks
  /// start once in each slice of the (log) bandwidth and delay band.
  void change_links(netsim::Network& net) {
    if (epoch_++ % kWalkEpochs != 0) {
      dynamics_.step(net);
      return;
    }
    const auto k = static_cast<int>(walks_++ % kLinkStrata);
    if (k == 0) {
      shuffle(bw_strata_);
      shuffle(delay_strata_);
    }
    const double lo = std::log(kDriftMinMbps), hi = std::log(kDriftMaxMbps);
    const double bw = std::exp(
        lo + (hi - lo) * (bw_strata_[k] + link_rng_.uniform()) / kLinkStrata);
    const double delay =
        kDriftMinDelayMs + (kDriftMaxDelayMs - kDriftMinDelayMs) *
                               (delay_strata_[k] + link_rng_.uniform()) /
                               kLinkStrata;
    netsim::shape_remotes(net, Bandwidth::from_mbps(bw), Delay::from_ms(delay));
  }

 private:
  template <std::size_t N>
  void shuffle(std::array<int, N>& a) {
    for (std::size_t i = 0; i < N; ++i) a[i] = static_cast<int>(i);
    for (std::size_t i = N - 1; i > 0; --i)
      std::swap(a[i], a[link_rng_.uniform_index(i + 1)]);
  }

  static netsim::NetworkDynamics::Options walk_options(std::uint64_t seed) {
    netsim::NetworkDynamics::Options o;  // default step sizes
    o.min_bandwidth_mbps = kDriftMinMbps;
    o.max_bandwidth_mbps = kDriftMaxMbps;
    o.min_delay_ms = kDriftMinDelayMs;
    o.max_delay_ms = kDriftMaxDelayMs;
    o.seed = mix(seed, 0xd7a);
    return o;
  }

  std::string workload_;
  Rng rng_;
  Rng link_rng_;
  netsim::NetworkDynamics dynamics_;
  std::uint64_t epoch_ = 0, walks_ = 0;
  std::array<int, kDriftEpoch> strata_{};
  std::array<int, kLinkStrata> bw_strata_{}, delay_strata_{};
  core::EnvOptions env_;
  double t_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Closed-loop window: waiter threads block on each request's future and
/// stamp the moment it becomes ready; the generator blocks while `window`
/// requests are outstanding.
class Waiters {
 public:
  Waiters(double t0_ms, int window, SpanLog& spans)
      : t0_(t0_ms), window_(window), spans_(spans) {
    for (int i = 0; i < window_; ++i)
      threads_.emplace_back([this] { loop(); });
  }
  ~Waiters() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Waiters(const Waiters&) = delete;
  Waiters& operator=(const Waiters&) = delete;

  void acquire() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < window_; });
    ++outstanding_;
  }
  void push(Record* r, std::future<runtime::ServeResult> f,
            std::uint64_t span_id) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(Item{r, std::move(f), span_id});
    }
    cv_.notify_all();
  }
  void drain() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

 private:
  struct Item {
    Record* record;
    std::future<runtime::ServeResult> future;
    std::uint64_t span_id;
  };

  void loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      item.future.wait();
      const double ready = now_ms();
      Record& r = *item.record;
      r.ready_ms = ready - t0_;
      r.result = item.future.get();
      ++r.resolutions;
      if (item.span_id != 0)
        spans_.record(SpanLog::Span{"serving.request", r.submit_ms + t0_,
                                    ready, item.span_id, 0, r.index});
      {
        std::lock_guard lock(mutex_);
        --outstanding_;
      }
      cv_.notify_all();
    }
  }

  double t0_;
  int window_;
  SpanLog& spans_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  int outstanding_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

struct Snapshot {
  Counters c;
  std::uint64_t batches = 0, batched = 0, planned = 0, affinity = 0,
                switches = 0, lookups = 0, hits = 0;
};

Snapshot snapshot(Deployment& dep) {
  Snapshot s;
  const auto& sv = *dep.serving;
  s.c = Counters{sv.submitted(), sv.completed(), sv.degraded(), sv.shed(),
                 sv.failed()};
  s.batches = sv.batches();
  s.batched = sv.batched_requests();
  if (dep.pool) {
    s.planned = dep.pool->planned();
    s.affinity = dep.pool->affinity_routed();
    s.batches = dep.pool->batches();
    s.batched = dep.pool->batches() + dep.pool->coalesced();
    s.switches = dep.pool->total_switches();
  } else {
    s.switches = dep.system->host().switch_count();
  }
  const auto& cache = dep.planner().cache();
  s.lookups = cache.lookups();
  s.hits = cache.hits();
  return s;
}

/// Serve `schedule` until `seconds` of wall time have passed and at least
/// `min_requests` were submitted (`seconds` <= 0: exactly min_requests).
std::vector<Record> serve(Deployment& dep, Schedule& schedule, double seconds,
                          int min_requests, SpanLog& spans, double* wall_s) {
  std::deque<Record> recs;  // stable addresses for the waiter threads
  const double t0 = now_ms();
  {
    Waiters waiters(t0, kWindow, spans);
    for (int i = 0;; ++i) {
      if (i >= min_requests &&
          (seconds <= 0.0 || now_ms() - t0 >= seconds * 1e3))
        break;
      const Schedule::Next n = schedule.next();
      if (n.epoch_start) {
        // Network::shape is not synchronized with the monitor's probes:
        // change links only with nothing in flight.
        waiters.drain();
        schedule.change_links(dep.system->network());
      }
      waiters.acquire();
      Record& r = recs.emplace_back();
      r.index = i;
      r.image = n.image;
      r.sim_arrival_ms = n.arrival_ms;
      r.slo = n.slo;
      const auto& link = dep.planner().network().link(1);
      r.link_mbps = link.bandwidth.mbps;
      r.link_delay_ms = link.delay.ms;
      const std::uint64_t req_span = spans.enabled() ? spans.next_id() : 0;
      r.submit_ms = now_ms() - t0;
      std::future<runtime::ServeResult> f;
      {
        ScopedSpan sp(spans, "serving.submit", req_span, i);
        f = dep.serving->submit(dep.images[static_cast<std::size_t>(n.image)],
                                n.arrival_ms, n.slo);
      }
      waiters.push(&r, std::move(f), req_span);
    }
    waiters.drain();
  }
  double last = 0.0;
  for (const auto& r : recs) last = std::max(last, r.ready_ms);
  if (wall_s) *wall_s = last / 1e3;
  return {std::make_move_iterator(recs.begin()),
          std::make_move_iterator(recs.end())};
}

int serving_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "steady" || name == "drift" || name == "pool";
}

int default_min_requests(const std::string& workload) {
  if (workload == "drift") return 480;
  return 600;
}

runtime::MurmurationSystem& Deployment::planner() {
  return system ? *system : *pool->replica_system(0);
}

std::unique_ptr<Deployment> make_deployment(const RunOptions& opts) {
  auto dep = std::make_unique<Deployment>();
  dep->workload = opts.workload;
  Rng img_rng(mix(opts.seed, 0x1ac3));
  for (int i = 0; i < kImages; ++i)
    dep->images.push_back(Tensor::randn({1, 3, 224, 224}, img_rng, 0.0f, 0.5f));

  const bool is_pool = opts.workload == "pool";
  const bool edge = opts.workload != "drift";
  const int n_systems = is_pool ? 2 : 1;

  // The metro-edge link, its bandwidth drawn per seed from 0.8-1 Gbps.
  // Anything above the env's 500 Mbps envelope clamps to the same planning
  // constraint, so every seed gets the same decisions while its sim clock
  // differs a little (the 1 Gbps local access link caps the path above).
  Rng link_rng(mix(opts.seed, 0xed9e));
  const double edge_mbps = kEdgeMbps * link_rng.uniform(0.8, 1.0);

  const double t0 = now_ms();
  std::vector<core::TrainedArtifacts> arts(static_cast<std::size_t>(n_systems));
  for (auto& a : arts) {
    if (!load_artifacts(opts.cache_dir, a))
      throw std::runtime_error("no trained checkpoint in " + opts.cache_dir);
    if (edge)
      netsim::shape_remotes(a.env->mutable_network(),
                            Bandwidth::from_mbps(edge_mbps),
                            Delay::from_ms(kEdgeDelayMs));
  }
  const core::EnvOptions env_opts = arts.front().env->options();
  const double t1 = now_ms();

  runtime::SystemOptions sys;
  sys.slo = core::Slo::latency_ms(edge ? kTightSloMs : env_opts.slo_max);
  sys.exec_width_mult = kExecWidth;
  sys.classes = kClasses;
  sys.seed = kSystemSeed;
  sys.telemetry = false;

  runtime::ServingOptions so;
  so.workers = serving_workers();
  so.queue_capacity = 8;
  // Per-request policy sampling streams belong to the deployment, like the
  // training seed: the workload seed varies the inputs, not the policy's
  // draws, so every seed of steady is served by the same strategy.
  so.seed = kSystemSeed;
  so.max_batch = opts.workload == "drift" ? 1 : 8;
  so.batch_window_ms = 400.0;
  so.drain_grace_ms = 5.0;

  if (is_pool) {
    std::vector<std::unique_ptr<runtime::MurmurationSystem>> systems;
    for (auto& a : arts)
      systems.push_back(
          std::make_unique<runtime::MurmurationSystem>(std::move(a), sys));
    runtime::ReplicaPoolOptions po;
    po.max_batch = so.max_batch;
    po.batch_window_ms = so.batch_window_ms;
    po.drain_grace_ms = so.drain_grace_ms;
    dep->pool = std::make_unique<runtime::ReplicaPool>(std::move(systems), po);
    dep->serving = std::make_unique<runtime::ServingLayer>(*dep->pool, so);
  } else {
    dep->system = std::make_unique<runtime::MurmurationSystem>(
        std::move(arts.front()), sys);
    dep->serving = std::make_unique<runtime::ServingLayer>(*dep->system, so);
  }
  dep->env_opts = env_opts;
  const double t2 = now_ms();

  // Warm-up: fills the lazy crop/pack caches, the first supernet switch and
  // the admission estimates before anything is timed.
  SpanLog off;
  double warm_start_ms = 0.0;
  if (is_pool) {
    // Settle one class per replica first, whatever the seed: a tight
    // request makes replica 0 resident on the tight submodel; a loose one
    // submitted while replica 0 is still busy spills to replica 1.
    const Tensor& img = dep->images.front();
    auto& sv = *dep->serving;
    (void)sv.submit(img, 0.0, core::Slo::latency_ms(kTightSloMs)).get();
    auto tight = sv.submit(img, 1000.0, core::Slo::latency_ms(kTightSloMs));
    auto loose = sv.submit(img, 1001.0, core::Slo::latency_ms(kLooseSloMs));
    (void)tight.get();
    (void)loose.get();
    warm_start_ms = 2000.0;
  }
  Schedule warm(opts.workload, mix(opts.seed, 0x3a7), env_opts, warm_start_ms);
  (void)serve(*dep, warm, 0.0, kWarmupRequests, off, nullptr);
  dep->sim_next_ms = warm.sim_end_ms();
  const double t3 = now_ms();

  dep->load_ms = t1 - t0;
  dep->system_ms = t2 - t1;
  dep->warmup_ms = t3 - t2;
  return dep;
}

PhaseResult run_phase(Deployment& dep, const RunOptions& opts, SpanLog& spans,
                      int min_requests) {
  PhaseResult out;
  Schedule schedule(opts.workload, mix(opts.seed, 0x7157), dep.env_opts,
                    dep.sim_next_ms);
  const Snapshot before = snapshot(dep);
  out.records =
      serve(dep, schedule, opts.seconds, min_requests, spans, &out.wall_s);
  const Snapshot after = snapshot(dep);
  dep.sim_next_ms = schedule.sim_end_ms();
  out.peak_rss_mb = peak_rss_mb();

  out.counters = Counters{after.c.submitted - before.c.submitted,
                          after.c.completed - before.c.completed,
                          after.c.degraded - before.c.degraded,
                          after.c.shed - before.c.shed,
                          after.c.failed - before.c.failed};
  out.sim_cut = std::min<int>(min_requests,
                              static_cast<int>(out.records.size()));
  out.batches = after.batches - before.batches;
  out.batched_requests = after.batched - before.batched;
  out.pool_planned = after.planned - before.planned;
  out.pool_affinity = after.affinity - before.affinity;
  out.switches = after.switches - before.switches;
  out.memo_lookups = after.lookups - before.lookups;
  out.memo_hits = after.hits - before.hits;
  return out;
}

}  // namespace murmur::perfbench
