// Serving-layer sustained throughput: serial (groups of one) vs
// strategy-coalesced batching (DESIGN.md §5.10).
//
// Workload: augmented computing (Pi 4 + desktop GPU) with the remote link
// shaped to a metro-edge profile (1 Gbps / 10 ms one-way delay, the
// tc-style shaping the paper's testbed applies), one latency SLO, static
// conditions — so every request's decision resolves to the same warm
// distributed strategy and the workload is maximally strategy-skewed.
//
// Metric: sustained throughput at a fixed shed-rate ceiling, on the
// simulated clock that admission control actually runs on. For each mode
// the bench sweeps the arrival spacing downward (rate upward) and replays
// a 64-request burst per point through one long-lived system + serving
// pair; a point "sustains" if at most 5% of its arrivals are shed. The
// reported throughput is the highest sustained arrival rate. Serial
// serving reserves each request's full critical-path latency on the
// busy-until clock; fused batches pay per-message path delays and
// envelope scaffolding once per batch, so each member reserves only its
// occupancy share (InferenceResult::sim_occupancy_ms) and the admissible
// rate rises. Wall-clock numbers for the same points are reported as a
// secondary table (on a single host the per-sample tensor compute floor
// dominates wall time; the capacity claim lives on the sim clock).
//
// Replica sweep (DESIGN.md §5.13): the same sustained-rate sweep through a
// ReplicaPool of {1, 2, 4} replicas under a strategy-DIVERSE workload —
// two interleaved latency-SLO classes (50 ms / 100 ms) whose decisions
// resolve to distinct submodels under this link shaping (res208 vs the
// full res224) AND land in distinct strategy-cache buckets (the env's
// SLO grid is ~51 ms wide here, so closer classes would share one cached
// decision). The serving layer's per-SLO-class admission estimates
// judge and reserve each class by its own cost, so neither class is shed
// against a blended EWMA; admission reserves against per-replica
// busy-until clocks, so capacity — and the sustained rate — scales with
// the replica count. The sweep also reports supernet switches per
// executed batch: a single host thrashes reconfiguration as the two
// classes interleave, while strategy-affinity routing settles each class
// onto its own replica and the resident-config hold turns repeat switches
// into no-ops.
//
// Prints both tables (bench::emit) and writes BENCH_serving.json into the
// working directory (override with MURMUR_SERVING_JSON).
//
// Knobs: MURMUR_SERVING_REQUESTS (default 64 per point),
// MURMUR_SERVING_BATCH (default 8), plus the shared MURMUR_TRAIN_STEPS /
// MURMUR_NO_CACHE.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "netsim/scenario.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "runtime/replica_pool.h"
#include "runtime/serving.h"
#include "runtime/system.h"

namespace murmur::bench {
namespace {

int env_int(const char* name, int def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : def;
}

constexpr double kSloMs = 50.0;
constexpr double kShedCeiling = 0.05;

// Replica-sweep workload: two interleaved latency-SLO classes whose
// decisions resolve to distinct submodels under the 1 Gbps / 10 ms
// shaping — kSloMs picks a mid config (~47 ms predicted), kSloLooseMs the
// full supernet (~59 ms) — so the workload is strategy-diverse and both
// classes stay deadline-feasible under per-class admission estimates.
// 100 ms (not, say, 80) keeps the two classes in *different* strategy-
// cache buckets: the env's SLO grid here is ~51 ms per bucket, and two
// classes sharing a bucket share one cached decision (the cache hit
// re-qualification in MurmurationSystem::decide only rejects entries
// that would *violate* the tighter class, not suboptimal-but-feasible
// ones), which would collapse the workload to a single strategy.
constexpr double kSloLooseMs = 100.0;

struct PointStats {
  double spacing_ms = 0.0;
  double rate_per_s = 0.0;  // arrival rate on the sim clock (1000/spacing)
  std::uint64_t shed = 0;
  double wall_s = 0.0;
  double wall_req_per_sec = 0.0;
  bool sustained = false;
};

/// One phase's tail triple from the attribution histograms.
struct PhaseQuant {
  const char* name = "";
  std::uint64_t count = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
};

struct RunStats {
  std::vector<PointStats> points;
  PointStats best;  // highest sustained-rate point
  std::uint64_t switches = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  double ewma_latency_ms = 0.0;
  double ewma_occupancy_ms = 0.0;
  /// Recorded-sweep phase attribution (DESIGN.md §5.11): where each
  /// request's sim latency went, and the wall-clock phases (decision,
  /// switch, executor, batch coalescing wait) that explain why batched
  /// wall throughput trails serial on a single host even as the sim-clock
  /// capacity rises.
  std::vector<PhaseQuant> sim_phases;
  std::vector<PhaseQuant> wall_phases;
};

std::vector<PhaseQuant> collect_phases(const std::string& prefix) {
  std::vector<PhaseQuant> out;
  auto& reg = obs::MetricsRegistry::instance();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const char* name = obs::phase_name(static_cast<obs::Phase>(p));
    const auto& h = reg.histogram(prefix + name);
    if (h.count() == 0) continue;
    const auto q = h.quantiles();
    out.push_back(PhaseQuant{name, h.count(), q.p50_ms, q.p95_ms, q.p99_ms});
  }
  return out;
}

/// `"attribution": {...}` fragment for one mode (no trailing newline).
std::string attribution_json(const RunStats& rs, const char* indent) {
  std::string s = "\"attribution\": {\n";
  const auto emit_map = [&](const char* key, const std::vector<PhaseQuant>& v,
                            bool last) {
    s += indent;
    s += "  \"";
    s += key;
    s += "\": {";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "%s\n%s    \"%s\": {\"count\": %llu, \"p50_ms\": %.3f, "
                    "\"p95_ms\": %.3f, \"p99_ms\": %.3f}",
                    i > 0 ? "," : "", indent, v[i].name,
                    static_cast<unsigned long long>(v[i].count), v[i].p50_ms,
                    v[i].p95_ms, v[i].p99_ms);
      s += buf;
    }
    s += "\n";
    s += indent;
    s += last ? "  }\n" : "  },\n";
  };
  emit_map("sim_phase_ms", rs.sim_phases, false);
  emit_map("wall_phase_ms", rs.wall_phases, true);
  s += indent;
  s += "}";
  return s;
}

/// Sweep arrival spacing through one long-lived system + serving pair so
/// the latency/occupancy EWMAs carry steady state from point to point.
RunStats run_mode(std::size_t max_batch, int requests) {
  auto artifacts = murmuration_artifacts(netsim::Scenario::kAugmentedComputing,
                                         core::SloType::kLatency);
  netsim::shape_remotes(artifacts.env->mutable_network(),
                        Bandwidth::from_mbps(1000), Delay::from_ms(10));
  runtime::SystemOptions sys_opts;
  sys_opts.slo = core::Slo::latency_ms(kSloMs);
  sys_opts.exec_width_mult = 0.25;
  sys_opts.classes = 100;
  sys_opts.use_predictor = false;
  // Attribution snapshots ride along in the report; sim-clock throughput —
  // the primary metric — is unaffected by the telemetry switch.
  sys_opts.telemetry = true;
  runtime::MurmurationSystem system(std::move(artifacts), sys_opts);

  runtime::ServingOptions serve_opts;
  serve_opts.queue_capacity = 8;
  serve_opts.seed = 17;
  serve_opts.max_batch = max_batch;
  // The group's sim-clock span covers max_batch arrivals at the sustained
  // spacing; the wall-clock grace keeps a steady trickle from fragmenting
  // groups the instant the replica queue momentarily runs dry.
  serve_opts.batch_window_ms = 400.0;
  serve_opts.drain_grace_ms = 5.0;

  Rng rng(41);
  const Tensor image = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);

  RunStats stats;
  {
    runtime::ServingLayer serving(system, serve_opts);
    // Warm-up: seeds both EWMAs and the strategy cache outside the sweep.
    (void)serving.submit(image, 0.0).get();
    const double warm_latency_ms = serving.latency_estimate_ms();

    // Convergence pre-pass (unrecorded): two easy-paced bursts let the
    // occupancy EWMA reach steady state — under batching it has to learn
    // down from the single-request warm-up before admission reserves the
    // amortized width — so the recorded sweep judges every point against
    // converged estimates.
    double base_ms = 1e4;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::future<runtime::ServeResult>> warm;
      warm.reserve(static_cast<std::size_t>(requests));
      for (int i = 0; i < requests; ++i)
        warm.push_back(
            serving.submit(image, base_ms + 1.3 * warm_latency_ms * i));
      for (auto& f : warm) (void)f.get();
      base_ms += 1.3 * warm_latency_ms * requests + 5e3;
    }
    const std::uint64_t switches_before = system.host().switch_count();
    // Attribution describes the recorded sweep only: drop warm-up and
    // convergence samples so the phase quantiles reflect steady state.
    obs::MetricsRegistry::instance().reset();

    double spacing = 1.3 * warm_latency_ms;
    for (int point = 0; point < 16; ++point, spacing *= 0.91) {
      const std::uint64_t shed_before = serving.shed();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<runtime::ServeResult>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      for (int i = 0; i < requests; ++i)
        futures.push_back(serving.submit(image, base_ms + spacing * i));
      for (auto& f : futures) (void)f.get();
      const auto t1 = std::chrono::steady_clock::now();

      PointStats p;
      p.spacing_ms = spacing;
      p.rate_per_s = 1000.0 / spacing;
      p.shed = serving.shed() - shed_before;
      p.wall_s = std::chrono::duration<double>(t1 - t0).count();
      p.wall_req_per_sec = requests / p.wall_s;
      p.sustained = p.shed <=
                    static_cast<std::uint64_t>(kShedCeiling * requests);
      if (p.sustained && p.rate_per_s > stats.best.rate_per_s) stats.best = p;
      stats.points.push_back(p);
      // Idle gap before the next point: the sim backlog drains fully, so
      // each point starts from an empty queue (only the EWMAs carry over).
      base_ms += spacing * requests + 5e3;
    }
    stats.switches = system.host().switch_count() - switches_before;
    stats.batches = serving.batches();
    stats.coalesced = serving.coalesced();
    stats.ewma_latency_ms = serving.latency_estimate_ms();
    stats.ewma_occupancy_ms = serving.occupancy_estimate_ms();
    stats.sim_phases = collect_phases("attrib.phase.");
    stats.wall_phases = collect_phases("attrib.wall.");
  }
  return stats;
}

struct PoolStats {
  int replicas = 1;
  PointStats best;  // highest sustained-rate point
  std::uint64_t shed_total = 0;
  std::uint64_t switches = 0;       // actual supernet reconfigurations
  std::uint64_t switches_held = 0;  // held: submodel already resident
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t affinity_routed = 0;
  std::uint64_t spill_routed = 0;
  double switches_per_batch = 0.0;
};

/// Sustained-rate sweep through a ReplicaPool of `replicas` replicas under
/// the two-class accuracy-SLO workload (see file comment).
PoolStats run_pool(int replicas, int requests, std::size_t max_batch) {
  std::vector<std::unique_ptr<runtime::MurmurationSystem>> systems;
  systems.reserve(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    auto artifacts = murmuration_artifacts(
        netsim::Scenario::kAugmentedComputing, core::SloType::kLatency);
    netsim::shape_remotes(artifacts.env->mutable_network(),
                          Bandwidth::from_mbps(1000), Delay::from_ms(10));
    runtime::SystemOptions sys_opts;
    sys_opts.slo = core::Slo::latency_ms(kSloMs);
    // Narrower executed tensors than the single-system modes: the sweep's
    // claims all live on the sim clock, so the wall compute floor is pure
    // bench runtime.
    sys_opts.exec_width_mult = 0.15;
    sys_opts.classes = 100;
    sys_opts.use_predictor = false;
    sys_opts.telemetry = false;
    systems.push_back(std::make_unique<runtime::MurmurationSystem>(
        std::move(artifacts), sys_opts));
  }

  runtime::ReplicaPoolOptions pool_opts;
  pool_opts.max_batch = max_batch;
  pool_opts.batch_window_ms = 400.0;
  pool_opts.drain_grace_ms = 5.0;
  runtime::ReplicaPool pool(std::move(systems), pool_opts);

  // Coalescing follows pool_opts; admission needs only its own options.
  runtime::ServingOptions serve_opts;
  serve_opts.queue_capacity = 8;  // scales by the routable-replica count
  serve_opts.seed = 17;

  const core::Slo tight = core::Slo::latency_ms(kSloMs);
  const core::Slo loose = core::Slo::latency_ms(kSloLooseMs);
  const auto slo_for = [&](int i) -> const core::Slo& {
    return i % 2 == 0 ? tight : loose;
  };

  Rng rng(43);
  const Tensor image = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);

  PoolStats stats;
  stats.replicas = replicas;
  {
    runtime::ServingLayer serving(pool, serve_opts);
    // Warm-up: one request per class seeds the per-class EWMAs, both
    // strategy caches, and the replicas' affinity keys.
    (void)serving.submit(image, 0.0, tight).get();
    (void)serving.submit(image, 500.0, loose).get();
    const double warm_latency_ms = serving.latency_estimate_ms();

    // Convergence pre-pass (unrecorded), as in run_mode: the occupancy
    // EWMA learns the amortized batched width and affinity routing settles
    // each class onto its replicas before anything is measured.
    double base_ms = 1e4;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::future<runtime::ServeResult>> warm;
      warm.reserve(static_cast<std::size_t>(requests));
      for (int i = 0; i < requests; ++i)
        warm.push_back(serving.submit(
            image, base_ms + 1.3 * warm_latency_ms * i, slo_for(i)));
      for (auto& f : warm) (void)f.get();
      base_ms += 1.3 * warm_latency_ms * requests + 5e3;
    }

    const std::uint64_t switches_before = pool.total_switches();
    const std::uint64_t held_before = pool.total_held_switches();
    const std::uint64_t batches_before = pool.batches();
    const std::uint64_t coalesced_before = pool.coalesced();
    const std::uint64_t affinity_before = pool.affinity_routed();
    const std::uint64_t spill_before = pool.spill_routed();

    // 20 points with a steeper decay than run_mode's (0.88 vs 0.91,
    // ~11x total range vs ~4x): a 4-replica pool sustains ~4x the
    // single-replica rate, so the sweep must reach well past it or the
    // deepest point would still sustain and underreport the pool.
    double spacing = 1.3 * warm_latency_ms;
    for (int point = 0; point < 20; ++point, spacing *= 0.88) {
      const std::uint64_t shed_before = serving.shed();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::future<runtime::ServeResult>> futures;
      futures.reserve(static_cast<std::size_t>(requests));
      for (int i = 0; i < requests; ++i)
        futures.push_back(
            serving.submit(image, base_ms + spacing * i, slo_for(i)));
      for (auto& f : futures) (void)f.get();
      const auto t1 = std::chrono::steady_clock::now();

      PointStats p;
      p.spacing_ms = spacing;
      p.rate_per_s = 1000.0 / spacing;
      p.shed = serving.shed() - shed_before;
      p.wall_s = std::chrono::duration<double>(t1 - t0).count();
      p.wall_req_per_sec = requests / p.wall_s;
      p.sustained =
          p.shed <= static_cast<std::uint64_t>(kShedCeiling * requests);
      if (p.sustained && p.rate_per_s > stats.best.rate_per_s) stats.best = p;
      base_ms += spacing * requests + 5e3;
    }

    stats.shed_total = serving.shed();
    stats.switches = pool.total_switches() - switches_before;
    stats.switches_held = pool.total_held_switches() - held_before;
    stats.batches = pool.batches() - batches_before;
    stats.coalesced = pool.coalesced() - coalesced_before;
    stats.affinity_routed = pool.affinity_routed() - affinity_before;
    stats.spill_routed = pool.spill_routed() - spill_before;
    stats.switches_per_batch =
        stats.batches > 0
            ? static_cast<double>(stats.switches) /
                  static_cast<double>(stats.batches)
            : 0.0;
  }
  return stats;
}

/// One `"replicas_N": {...}` fragment (no trailing newline or comma).
std::string pool_json(const PoolStats& ps) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "\"replicas_%d\": {\n"
      "      \"sustained_req_per_s\": %.2f,\n"
      "      \"spacing_ms\": %.2f,\n"
      "      \"shed_at_point\": %llu,\n"
      "      \"supernet_switches\": %llu,\n"
      "      \"switches_held\": %llu,\n"
      "      \"switches_per_batch\": %.3f,\n"
      "      \"batches\": %llu,\n"
      "      \"coalesced\": %llu,\n"
      "      \"affinity_routed\": %llu,\n"
      "      \"spill_routed\": %llu\n"
      "    }",
      ps.replicas, ps.best.rate_per_s, ps.best.spacing_ms,
      static_cast<unsigned long long>(ps.best.shed),
      static_cast<unsigned long long>(ps.switches),
      static_cast<unsigned long long>(ps.switches_held),
      ps.switches_per_batch, static_cast<unsigned long long>(ps.batches),
      static_cast<unsigned long long>(ps.coalesced),
      static_cast<unsigned long long>(ps.affinity_routed),
      static_cast<unsigned long long>(ps.spill_routed));
  return buf;
}

void write_json(const char* path, int requests, std::size_t max_batch,
                const RunStats& serial, const RunStats& batched,
                double speedup, const std::vector<PoolStats>& pools) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path);
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"serving_throughput\",\n"
      "  \"workload\": {\n"
      "    \"scenario\": \"augmented_computing\",\n"
      "    \"link_shaping\": \"1 Gbps / 10 ms to the remote GPU\",\n"
      "    \"slo_ms\": %.0f,\n"
      "    \"strategy_skew\": \"single warm distributed strategy\",\n"
      "    \"requests_per_point\": %d,\n"
      "    \"shed_rate_ceiling\": %.2f,\n"
      "    \"max_batch\": %zu\n"
      "  },\n"
      "  \"serial\": {\n"
      "    \"sustained_req_per_s\": %.2f,\n"
      "    \"spacing_ms\": %.2f,\n"
      "    \"shed_at_point\": %llu,\n"
      "    \"wall_req_per_sec\": %.2f,\n"
      "    \"ewma_latency_ms\": %.2f,\n"
      "    \"ewma_occupancy_ms\": %.2f,\n"
      "    %s\n"
      "  },\n"
      "  \"batched\": {\n"
      "    \"sustained_req_per_s\": %.2f,\n"
      "    \"spacing_ms\": %.2f,\n"
      "    \"shed_at_point\": %llu,\n"
      "    \"wall_req_per_sec\": %.2f,\n"
      "    \"ewma_latency_ms\": %.2f,\n"
      "    \"ewma_occupancy_ms\": %.2f,\n"
      "    \"batches\": %llu,\n"
      "    \"coalesced\": %llu,\n"
      "    \"supernet_switches\": %llu,\n"
      "    %s\n"
      "  },\n"
      "  \"speedup\": %.2f,\n",
      kSloMs, requests, kShedCeiling, max_batch,
      serial.best.rate_per_s, serial.best.spacing_ms,
      static_cast<unsigned long long>(serial.best.shed),
      serial.best.wall_req_per_sec, serial.ewma_latency_ms,
      serial.ewma_occupancy_ms, attribution_json(serial, "    ").c_str(),
      batched.best.rate_per_s, batched.best.spacing_ms,
      static_cast<unsigned long long>(batched.best.shed),
      batched.best.wall_req_per_sec, batched.ewma_latency_ms,
      batched.ewma_occupancy_ms,
      static_cast<unsigned long long>(batched.batches),
      static_cast<unsigned long long>(batched.coalesced),
      static_cast<unsigned long long>(batched.switches),
      attribution_json(batched, "    ").c_str(), speedup);

  const PoolStats& r1 = pools.front();
  std::fprintf(f,
               "  \"replica_sweep\": {\n"
               "    \"workload\": \"two interleaved latency-SLO classes "
               "(%.0f ms / %.0f ms) — strategy-diverse\",\n",
               kSloMs, kSloLooseMs);
  for (const auto& ps : pools)
    std::fprintf(f, "    %s,\n", pool_json(ps).c_str());
  std::fprintf(f, "    \"scaling\": {");
  for (std::size_t i = 1; i < pools.size(); ++i)
    std::fprintf(f, "%s\"speedup_%dx\": %.2f", i > 1 ? ", " : "",
                 pools[i].replicas,
                 r1.best.rate_per_s > 0.0
                     ? pools[i].best.rate_per_s / r1.best.rate_per_s
                     : 0.0);
  std::fprintf(f,
               "}\n"
               "  }\n"
               "}\n");
  std::fclose(f);
  std::printf("wrote %s (sustained throughput %.2fx at shed rate <= %.0f%%)\n",
              path, speedup, kShedCeiling * 100.0);
}

}  // namespace
}  // namespace murmur::bench

int main() {
  using namespace murmur;
  using namespace murmur::bench;

  const int requests = env_int("MURMUR_SERVING_REQUESTS", 64);
  const std::size_t max_batch =
      static_cast<std::size_t>(env_int("MURMUR_SERVING_BATCH", 8));

  const RunStats serial = run_mode(/*max_batch=*/1, requests);
  const RunStats batched = run_mode(max_batch, requests);
  const double speedup = serial.best.rate_per_s > 0.0
                             ? batched.best.rate_per_s / serial.best.rate_per_s
                             : 0.0;

  std::vector<PoolStats> pools;
  for (const int n : {1, 2, 4}) pools.push_back(run_pool(n, requests, max_batch));

  Table t({"mode", "sustained req/s", "spacing_ms", "shed", "ewma_lat_ms",
           "ewma_occ_ms", "batches", "coalesced"});
  t.new_row()
      .add("serial")
      .add(serial.best.rate_per_s)
      .add(serial.best.spacing_ms)
      .add(static_cast<double>(serial.best.shed))
      .add(serial.ewma_latency_ms)
      .add(serial.ewma_occupancy_ms)
      .add(static_cast<double>(serial.batches))
      .add(static_cast<double>(serial.coalesced));
  t.new_row()
      .add("batched")
      .add(batched.best.rate_per_s)
      .add(batched.best.spacing_ms)
      .add(static_cast<double>(batched.best.shed))
      .add(batched.ewma_latency_ms)
      .add(batched.ewma_occupancy_ms)
      .add(static_cast<double>(batched.batches))
      .add(static_cast<double>(batched.coalesced));
  emit("serving_throughput",
       "Sustained sim-clock serving throughput at a 5% shed-rate ceiling, "
       "serial vs strategy-coalesced batching",
       t);

  Table w({"mode", "spacing_ms", "rate req/s", "shed", "wall req/s"});
  for (const auto* rs : {&serial, &batched}) {
    const char* mode = rs == &serial ? "serial" : "batched";
    for (const auto& p : rs->points)
      w.new_row()
          .add(mode)
          .add(p.spacing_ms)
          .add(p.rate_per_s)
          .add(static_cast<double>(p.shed))
          .add(p.wall_req_per_sec);
  }
  emit("serving_throughput_sweep",
       "Arrival-spacing sweep detail (wall-clock req/s is secondary: the "
       "single-host tensor compute floor is shared by both modes)",
       w);

  Table a({"mode", "clock", "phase", "count", "p50_ms", "p95_ms", "p99_ms"});
  for (const auto* rs : {&serial, &batched}) {
    const char* mode = rs == &serial ? "serial" : "batched";
    for (const auto& ph : rs->sim_phases)
      a.new_row()
          .add(mode)
          .add("sim")
          .add(ph.name)
          .add(static_cast<double>(ph.count))
          .add(ph.p50_ms)
          .add(ph.p95_ms)
          .add(ph.p99_ms);
    for (const auto& ph : rs->wall_phases)
      a.new_row()
          .add(mode)
          .add("wall")
          .add(ph.name)
          .add(static_cast<double>(ph.count))
          .add(ph.p50_ms)
          .add(ph.p95_ms)
          .add(ph.p99_ms);
  }
  emit("serving_phase_attribution",
       "Per-request phase attribution (DESIGN.md §5.11). Sim rows show "
       "where the simulated latency budget goes; wall rows show host-side "
       "cost — the batched mode's wall batch_window (coalescing wait) is "
       "the time serial serving does not pay, which is why batched wall "
       "req/s trails serial while sim-clock capacity rises",
       a);

  Table r({"replicas", "sustained req/s", "scaling", "shed", "switches",
           "held", "sw/batch", "batches", "coalesced", "affinity", "spill"});
  for (const auto& ps : pools)
    r.new_row()
        .add(static_cast<double>(ps.replicas))
        .add(ps.best.rate_per_s)
        .add(pools.front().best.rate_per_s > 0.0
                 ? ps.best.rate_per_s / pools.front().best.rate_per_s
                 : 0.0)
        .add(static_cast<double>(ps.best.shed))
        .add(static_cast<double>(ps.switches))
        .add(static_cast<double>(ps.switches_held))
        .add(ps.switches_per_batch)
        .add(static_cast<double>(ps.batches))
        .add(static_cast<double>(ps.coalesced))
        .add(static_cast<double>(ps.affinity_routed))
        .add(static_cast<double>(ps.spill_routed));
  emit("serving_replica_sweep",
       "Replica-pool sustained throughput (DESIGN.md §5.13) under a "
       "strategy-diverse two-class workload: capacity scales with the "
       "replica count while strategy-affinity routing settles each class "
       "onto its own replicas, so supernet switches per batch drop vs the "
       "single-host baseline",
       r);

  const char* out = std::getenv("MURMUR_SERVING_JSON");
  write_json(out != nullptr ? out : "BENCH_serving.json", requests, max_batch,
             serial, batched, speedup, pools);
  return 0;
}
