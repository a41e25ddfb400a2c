// murmurctl — command-line front end for the Murmuration library.
//
//   murmurctl train  [--scenario aug|swarm] [--slo-type latency|accuracy]
//                    [--algo supreme|gcsl|ppo] [--steps N] [--seed N]
//   murmurctl decide --slo V [--scenario ...] [--slo-type ...]
//                    [--bw MBPS] [--delay MS]
//   murmurctl sweep  [--scenario ...] --slo V       (bandwidth sweep table)
//   murmurctl trace  [--scenario ...] [--frames N] [--out trace.csv]
//   murmurctl metrics [--requests N] [--scenario ...] [--slo V] [--bw MBPS]
//                    [--delay MS] [--trace-out trace.json]
//                    [--metrics-out metrics.json]
//                     (serve N requests with telemetry on; report per-stage
//                      p50/p90/p99 latencies and cache behaviour; optionally
//                      export a chrome://tracing span trace and a metrics
//                      JSON snapshot)
//   murmurctl overload [--requests N] [--spacing MS]
//                    [--queue N] [--rungs N] [--chaos 0|1] [--scenario ...]
//                    [--slo V] [--seed N] [--batch N] [--window MS]
//                    [--drain-grace MS] [--replicas N] [--kill-at I]
//                    [--join-at I] [--adapt 0|1]
//                    [--attrib-out flight.jsonl]
//                    [--attrib-trace-out flight_trace.json]
//                     (replay a seeded burst through the concurrent serving
//                      layer; report the completed/degraded/shed/failed
//                      partition, shed reasons, breaker transitions, and the
//                      per-phase latency-attribution table, DESIGN.md §5.11.
//                      --batch N > 1 turns on strategy-coalesced batching,
//                      DESIGN.md §5.10, and reports group/flush/occupancy
//                      stats. --replicas N > 1 serves the burst through a
//                      replica pool with strategy-affinity routing,
//                      DESIGN.md §5.13; the chaos drills --kill-at I /
//                      --join-at I crash replica 0 / warm-join a fresh
//                      replica when request I is submitted. --attrib-out
//                      dumps the flight-recorder ring as JSONL;
//                      --attrib-trace-out exports it as a Chrome trace with
//                      cross-device causal flow arrows. --adapt 1 (single-
//                      replica mode) attaches the online adapter —
//                      background trainer, guarded policy snapshots, drift
//                      detection, latency calibration, DESIGN.md §5.14 —
//                      and reports the adaptation panel)
//   murmurctl top   [--frames N] [--refresh-ms MS] [--plain 0|1]
//                    [+ all overload flags]
//                     (live terminal view of the same burst: SLO compliance
//                      / shed / burn-rate gauges, ladder rung, breaker or
//                      per-replica board, phase p50/p95/p99 table, batch
//                      occupancy — redrawn every frame; --plain 1 appends
//                      frames instead of redrawing, for logs and CI)
//   murmurctl info                                   (search space / models)
//
// Trained policies are cached in .murmur_cache and shared with the
// benchmarks.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "core/decision.h"
#include "core/training.h"
#include "netsim/faults.h"
#include "netsim/scenario.h"
#include "netsim/trace.h"
#include "obs/attrib.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/adapt.h"
#include "runtime/replica_pool.h"
#include "runtime/serving.h"
#include "runtime/system.h"
#include "supernet/accuracy_model.h"
#include "supernet/cost_model.h"
#include "supernet/model_zoo.h"

using namespace murmur;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& def) const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  double num(const std::string& key, double def) const {
    const auto it = flags.find(key);
    return it == flags.end() ? def : std::stod(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args.flags[key] = argv[i + 1];
  }
  return args;
}

core::TrainSetup setup_from(const Args& args) {
  core::TrainSetup s;
  s.scenario = args.get("scenario", "aug") == "swarm"
                   ? netsim::Scenario::kDeviceSwarm
                   : netsim::Scenario::kAugmentedComputing;
  s.slo_type = args.get("slo-type", "latency") == "accuracy"
                   ? core::SloType::kAccuracy
                   : core::SloType::kLatency;
  const std::string algo = args.get("algo", "supreme");
  s.algo = algo == "gcsl"  ? core::Algo::kGcsl
           : algo == "ppo" ? core::Algo::kPpo
                           : core::Algo::kSupreme;
  s.trainer.total_steps = static_cast<int>(args.num("steps", 3000));
  s.trainer.eval_every = std::max(1, s.trainer.total_steps / 10);
  s.trainer.eval_points = 96;
  s.trainer.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  return s;
}

core::Slo slo_from(const Args& args, core::SloType type) {
  const double v = args.num("slo", type == core::SloType::kLatency ? 200 : 75);
  return type == core::SloType::kLatency ? core::Slo::latency_ms(v)
                                         : core::Slo::accuracy_pct(v);
}

int cmd_train(const Args& args) {
  const auto art = core::train_or_load(setup_from(args));
  Table t({"step", "avg_reward", "compliance"});
  for (const auto& p : art.curve)
    t.new_row().add(static_cast<double>(p.step)).add(p.avg_reward).add(
        p.compliance);
  t.print(std::cout);
  if (art.replay)
    std::printf("strategy store: %zu entries in %zu buckets\n",
                art.replay->num_entries(), art.replay->num_buckets());
  return 0;
}

int cmd_decide(const Args& args) {
  const auto setup = setup_from(args);
  const auto art = core::train_or_load(setup);
  netsim::Network net = netsim::make_scenario(setup.scenario);
  netsim::shape_remotes(net, Bandwidth::from_mbps(args.num("bw", 150)),
                        Delay::from_ms(args.num("delay", 20)));
  core::DecisionEngine engine(*art.env, *art.policy, art.replay.get());
  Rng rng(1);
  const auto slo = slo_from(args, setup.slo_type);
  const auto d = engine.decide(slo, net.conditions(), rng);
  std::printf("SLO %s under %.0f Mbps / %.0f ms\n", slo.to_string().c_str(),
              args.num("bw", 150), args.num("delay", 20));
  std::printf("  %s\n", d.satisfied ? "SATISFIED" : "NOT SATISFIABLE");
  std::printf("  predicted: latency %.1f ms, accuracy %.2f%%, reward %.3f\n",
              d.predicted.latency_ms, d.predicted.accuracy, d.reward);
  std::printf("  config: %s\n", d.strategy.config.to_string().c_str());
  std::printf("  plan:   %s\n",
              d.strategy.plan.to_string(d.strategy.config).c_str());
  if (args.num("timeline", 0) != 0) {
    partition::Timeline tl;
    const partition::SubnetLatencyEvaluator eval(net);
    eval.evaluate(d.strategy.config, d.strategy.plan, &tl);
    std::printf("%s", tl.render(net.num_devices()).c_str());
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto setup = setup_from(args);
  const auto art = core::train_or_load(setup);
  core::DecisionEngine engine(*art.env, *art.policy, art.replay.get());
  Rng rng(1);
  const auto slo = slo_from(args, setup.slo_type);
  Table t({"bandwidth_mbps", "latency_ms", "accuracy_pct", "satisfied",
           "devices_used"},
          1);
  for (double bw : {5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
    netsim::Network net = netsim::make_scenario(setup.scenario);
    netsim::shape_remotes(net, Bandwidth::from_mbps(bw),
                          Delay::from_ms(args.num("delay", 20)));
    const auto d = engine.decide(slo, net.conditions(), rng);
    t.new_row()
        .add(bw)
        .add(d.predicted.latency_ms)
        .add(d.predicted.accuracy)
        .add(d.satisfied ? "yes" : "no")
        .add(static_cast<double>(d.strategy.plan.devices_used(d.strategy.config)));
  }
  std::printf("SLO %s, delay %.0f ms\n", slo.to_string().c_str(),
              args.num("delay", 20));
  t.print(std::cout);
  return 0;
}

int cmd_trace(const Args& args) {
  const auto setup = setup_from(args);
  netsim::Network net = netsim::make_scenario(setup.scenario);
  netsim::shape_remotes(net, Bandwidth::from_mbps(args.num("bw", 150)),
                        Delay::from_ms(args.num("delay", 20)));
  netsim::NetworkDynamics::Options dopts;
  dopts.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto trace = netsim::ConditionTrace::record_random_walk(
      net, dopts, static_cast<int>(args.num("frames", 100)),
      args.num("dt", 100.0));
  const std::string out = args.get("out", "trace.csv");
  if (!trace.save(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu frames (%.1f s) to %s\n", trace.size(),
              trace.duration_ms() / 1e3, out.c_str());
  return 0;
}

int cmd_metrics(const Args& args) {
  const auto setup = setup_from(args);
  auto artifacts = core::train_or_load(setup);

  runtime::SystemOptions opts;
  opts.slo = slo_from(args, setup.slo_type);
  opts.exec_width_mult = args.num("width", 0.15);
  opts.classes = 100;
  opts.telemetry = true;
  // Fresh collection window: prior registration (e.g. during training)
  // must not pollute the per-request report.
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().clear();
  runtime::MurmurationSystem system(std::move(artifacts), opts);
  netsim::shape_remotes(system.network(),
                        Bandwidth::from_mbps(args.num("bw", 150)),
                        Delay::from_ms(args.num("delay", 20)));

  const int requests = std::max(1, static_cast<int>(args.num("requests", 20)));
  Rng rng(static_cast<std::uint64_t>(args.num("seed", 1)) ^ 0xC11u);
  Tensor image = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  int met = 0;
  for (int i = 0; i < requests; ++i) met += system.infer(image).slo_met ? 1 : 0;

  auto& reg = obs::MetricsRegistry::instance();
  Table t({"stage", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"});
  for (const auto& name : reg.histogram_names()) {
    const auto& h = reg.histogram(name);
    if (h.count() == 0) continue;
    const auto q = h.quantiles();
    t.new_row()
        .add(name)
        .add(static_cast<double>(h.count()))
        .add(q.p50_ms)
        .add(q.p95_ms)
        .add(q.p99_ms)
        .add(h.max_ms());
  }
  std::printf("%d requests, SLO %s: %d met (%.0f%%)\n", requests,
              system.slo().to_string().c_str(), met,
              100.0 * met / requests);
  std::printf("strategy cache: %llu hits / %llu misses / %llu evictions "
              "(hit rate %.0f%%, %zu entries)\n",
              static_cast<unsigned long long>(system.cache().hits()),
              static_cast<unsigned long long>(system.cache().misses()),
              static_cast<unsigned long long>(system.cache().evictions()),
              100.0 * system.cache().hit_rate(), system.cache().size());
  t.print(std::cout);

  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    if (!reg.write_json(metrics_out)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics snapshot: %s\n", metrics_out.c_str());
  }
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    if (!obs::Tracer::instance().write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("chrome trace (%zu spans): %s — open at chrome://tracing\n",
                obs::Tracer::instance().event_count(), trace_out.c_str());
  }
  return 0;
}

// Shared burst harness for `overload` and `top`: a trained system (or a
// replica pool of them, --replicas N) under (optional) chaos faults
// fronted by the concurrent serving layer, built from the common flag set.
// Member order matters for destruction: the serving layer drains first,
// then the pool joins its workers, and the injector every replica points
// at goes away last.
struct BurstRig {
  core::TrainSetup setup;
  runtime::SystemOptions sys_opts;
  core::Slo slo;
  double bw_mbps = 150.0;
  double delay_ms = 20.0;
  Tensor image;  // the burst workload; also the join warm-up probe input
  std::unique_ptr<netsim::FaultInjector> injector;
  std::unique_ptr<runtime::MurmurationSystem> system;  // single-system mode
  std::unique_ptr<runtime::ReplicaPool> pool;          // --replicas > 1
  // --adapt 1: online adapter attached to the single system. Declared
  // between pool and serving so the serving layer drains before the
  // adapter's trainer stops, and the system the adapter observes outlives
  // neither.
  std::unique_ptr<runtime::OnlineAdapter> adapter;
  std::unique_ptr<runtime::ServingLayer> serving;
  runtime::ServingOptions serve_opts;
  std::uint64_t seed = 0;
  bool chaos = false;
  int replicas = 1;

  /// One fully shaped, chaos-wired replica (cached artifacts after the
  /// first call). Also used by the --join-at drill mid-burst.
  std::unique_ptr<runtime::MurmurationSystem> make_replica() {
    auto sys = std::make_unique<runtime::MurmurationSystem>(
        core::train_or_load(setup), sys_opts);
    netsim::shape_remotes(sys->network(), Bandwidth::from_mbps(bw_mbps),
                          Delay::from_ms(delay_ms));
    if (chaos)
      sys->set_failover(
          {.injector = injector.get(), .recv_slack_ms = 50.0});
    return sys;
  }
};

BurstRig make_burst_rig(const Args& args) {
  BurstRig rig;
  rig.setup = setup_from(args);
  // The burst is a swarm workload by default: 1 local + 4 remote devices.
  if (args.flags.find("scenario") == args.flags.end())
    rig.setup.scenario = netsim::Scenario::kDeviceSwarm;
  // Warm the artifact cache before resetting the observability plane:
  // training-time registration and any prior burst's flight records must
  // not pollute this run's attribution.
  (void)core::train_or_load(rig.setup);
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().clear();
  obs::FlightRecorder::instance().reset();

  rig.sys_opts.slo = slo_from(args, rig.setup.slo_type);
  rig.sys_opts.exec_width_mult = args.num("width", 0.15);
  rig.sys_opts.classes = 100;
  rig.sys_opts.telemetry = true;
  rig.sys_opts.use_predictor = false;  // burst serving: no precompute detour
  rig.slo = rig.sys_opts.slo;
  rig.bw_mbps = args.num("bw", 150);
  rig.delay_ms = args.num("delay", 20);
  rig.seed = static_cast<std::uint64_t>(args.num("seed", 7));
  rig.chaos = args.num("chaos", 1) != 0;
  rig.replicas = std::max(1, static_cast<int>(args.num("replicas", 1)));

  netsim::FaultPlan plan;
  if (rig.chaos) {
    Rng chaos_rng(rig.seed);
    netsim::FaultPlan::ChaosOptions copts;
    // Default the fault horizon to the burst's sim-time span so the chaos
    // schedule actually overlaps the workload.
    copts.horizon_ms = args.num(
        "horizon", std::max(1'000.0, args.num("requests", 64) *
                                         args.num("spacing", 5.0) * 2.0));
    plan = netsim::FaultPlan::chaos(
        netsim::make_scenario(rig.setup.scenario).num_devices(), copts,
        chaos_rng);
  }
  rig.injector =
      std::make_unique<netsim::FaultInjector>(std::move(plan), rig.seed);

  Rng img_rng(rig.seed ^ 0x0eedu);
  rig.image = Tensor::randn({1, 3, 224, 224}, img_rng, 0.0f, 0.5f);

  rig.serve_opts.queue_capacity =
      static_cast<std::size_t>(args.num("queue", 16));
  rig.serve_opts.ladder.rungs = static_cast<int>(args.num("rungs", 3));
  rig.serve_opts.seed = rig.seed;
  // Batching is opt-in: --batch 1 (the default) reproduces serial serving
  // bit for bit (one-member groups, occupancy == latency).
  rig.serve_opts.max_batch =
      static_cast<std::size_t>(std::max(1.0, args.num("batch", 1)));
  rig.serve_opts.batch_window_ms =
      args.num("window", rig.serve_opts.batch_window_ms);
  rig.serve_opts.drain_grace_ms =
      args.num("drain-grace", rig.serve_opts.max_batch > 1 ? 5.0 : 0.0);

  if (rig.replicas > 1) {
    std::vector<std::unique_ptr<runtime::MurmurationSystem>> systems;
    systems.reserve(static_cast<std::size_t>(rig.replicas));
    for (int i = 0; i < rig.replicas; ++i)
      systems.push_back(rig.make_replica());
    runtime::ReplicaPoolOptions po;
    po.max_batch = rig.serve_opts.max_batch;
    po.batch_window_ms = rig.serve_opts.batch_window_ms;
    po.drain_grace_ms = rig.serve_opts.drain_grace_ms;
    po.warmup_image = rig.image;  // --join-at drills probe before serving
    rig.pool = std::make_unique<runtime::ReplicaPool>(std::move(systems), po);
    rig.serving =
        std::make_unique<runtime::ServingLayer>(*rig.pool, rig.serve_opts);
  } else {
    rig.system = rig.make_replica();
    if (args.num("adapt", 0) != 0) {
      rig.adapter = std::make_unique<runtime::OnlineAdapter>(
          rig.system->env(), rig.system->policy(), rig.system->replay());
      rig.system->attach_adapter(rig.adapter.get());
      rig.adapter->start();
    }
    rig.serving =
        std::make_unique<runtime::ServingLayer>(*rig.system, rig.serve_opts);
  }
  return rig;
}

/// Adaptation panel for --adapt bursts: snapshot lineage, trainer cycle
/// and guardrail counters, drift events, and the per-device latency
/// calibration (DESIGN.md §5.14).
void print_adapt_panel(const runtime::OnlineAdapter& adapter,
                       std::size_t num_devices) {
  const auto s = adapter.stats();
  std::printf("adaptation: snapshot %llu live; %llu samples, %llu trainer "
              "cycles\n",
              static_cast<unsigned long long>(s.snapshot_id),
              static_cast<unsigned long long>(s.samples),
              static_cast<unsigned long long>(s.cycles));
  std::printf("  snapshots: %llu published (%llu unguarded), "
              "%llu rejected_checksum, %llu rejected_guardrail, "
              "%llu rollbacks\n",
              static_cast<unsigned long long>(s.published),
              static_cast<unsigned long long>(s.unguarded),
              static_cast<unsigned long long>(s.rejected_checksum),
              static_cast<unsigned long long>(s.rejected_guardrail),
              static_cast<unsigned long long>(s.rollbacks));
  std::printf("  drift: %llu events\n",
              static_cast<unsigned long long>(s.drift_events));
  const auto& calib = adapter.calibration();
  std::printf("  latency calibration: %s, max ratio %.2fx;",
              calib.active() ? "ACTIVE" : "inactive",
              s.calibration_max_ratio);
  for (std::size_t d = 0; d < num_devices; ++d)
    std::printf("  d%zu %.2f", d, calib.ratio(d));
  std::printf("\n");
}

/// Per-replica board + routing/membership counters for pool-mode bursts
/// (`--replicas N`), DESIGN.md §5.13.
void print_replica_board(const runtime::ReplicaPool& pool) {
  Table t({"replica", "state", "breaker", "load", "executed", "affinity",
           "switches", "held"});
  for (const auto& r : pool.snapshot()) {
    char key[20];
    std::snprintf(key, sizeof(key), "%012llx",
                  static_cast<unsigned long long>(r.affinity_key) &
                      0xFFFFFFFFFFFFull);
    t.new_row()
        .add(static_cast<double>(r.id))
        .add(runtime::to_string(r.state))
        .add(runtime::to_string(r.breaker))
        .add(static_cast<double>(r.load))
        .add(static_cast<double>(r.executed))
        .add(key)
        .add(static_cast<double>(r.switches))
        .add(static_cast<double>(r.switches_held));
  }
  t.print(std::cout);
  std::printf("routing: %llu planned — %llu affinity, %llu spill, "
              "%llu probe; %llu redispatched, %llu unroutable\n",
              static_cast<unsigned long long>(pool.planned()),
              static_cast<unsigned long long>(pool.affinity_routed()),
              static_cast<unsigned long long>(pool.spill_routed()),
              static_cast<unsigned long long>(pool.probe_routed()),
              static_cast<unsigned long long>(pool.redispatched()),
              static_cast<unsigned long long>(pool.unroutable_failures()));
  std::printf("membership: %llu joins, %llu kills, %llu drains; "
              "pool batches %llu (%llu coalesced); supernet switches "
              "%llu actual, %llu held resident\n",
              static_cast<unsigned long long>(pool.joins()),
              static_cast<unsigned long long>(pool.kills()),
              static_cast<unsigned long long>(pool.drains()),
              static_cast<unsigned long long>(pool.batches()),
              static_cast<unsigned long long>(pool.coalesced()),
              static_cast<unsigned long long>(pool.total_switches()),
              static_cast<unsigned long long>(pool.total_held_switches()));
  const auto& b = pool.breakers();
  const auto transitions = b.transitions();
  std::printf("replica breakers: %llu trips, %llu half-opens, %llu closes; "
              "transition log %zu events (%llu dropped)\n",
              static_cast<unsigned long long>(b.trips()),
              static_cast<unsigned long long>(b.half_opens()),
              static_cast<unsigned long long>(b.closes()),
              transitions.size(),
              static_cast<unsigned long long>(b.dropped_transitions()));
  for (const auto& tr : transitions)
    std::printf("    t=%7.1f ms  replica %zu  %s -> %s\n", tr.sim_ms,
                tr.device, runtime::to_string(tr.from),
                runtime::to_string(tr.to));
}

/// Per-phase sim-latency attribution table (p50/p95/p99 from the
/// attrib.phase.* histograms). Returns false when no phase has samples
/// (telemetry off or no requests finished).
bool print_phase_attribution() {
  auto& reg = obs::MetricsRegistry::instance();
  Table t({"phase", "count", "p50_ms", "p95_ms", "p99_ms"});
  std::size_t rows = 0;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    const char* name = obs::phase_name(static_cast<obs::Phase>(p));
    const auto& h = reg.histogram(std::string("attrib.phase.") + name);
    if (h.count() == 0) continue;
    const auto q = h.quantiles();
    t.new_row()
        .add(name)
        .add(static_cast<double>(h.count()))
        .add(q.p50_ms)
        .add(q.p95_ms)
        .add(q.p99_ms);
    ++rows;
  }
  if (rows == 0) return false;
  t.print(std::cout);
  return true;
}

/// `--attrib-out` / `--attrib-trace-out` handling shared by overload and
/// top. Returns false (after printing to stderr) on I/O failure.
bool export_flight_records(const Args& args) {
  auto& flight = obs::FlightRecorder::instance();
  const std::string attrib_out = args.get("attrib-out", "");
  if (!attrib_out.empty()) {
    if (!flight.write_jsonl(attrib_out)) {
      std::fprintf(stderr, "failed to write %s\n", attrib_out.c_str());
      return false;
    }
    std::printf("flight records (%llu requests): %s\n",
                static_cast<unsigned long long>(flight.total()),
                attrib_out.c_str());
  }
  const std::string trace_out = args.get("attrib-trace-out", "");
  if (!trace_out.empty()) {
    if (!flight.write_chrome(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return false;
    }
    std::printf("attribution trace: %s — open at chrome://tracing "
                "(pid 1 = serving, pid 100+d = device d)\n",
                trace_out.c_str());
  }
  return true;
}

int cmd_overload(const Args& args) {
  BurstRig rig = make_burst_rig(args);
  runtime::ServingLayer& serving = *rig.serving;
  const runtime::ServingOptions& serve_opts = rig.serve_opts;

  const int requests = std::max(1, static_cast<int>(args.num("requests", 64)));
  const double spacing = args.num("spacing", 5.0);
  // Chaos drills (pool mode): crash replica 0 / warm-join a fresh replica
  // when the given request index is submitted.
  const int kill_at = static_cast<int>(args.num("kill-at", -1));
  const int join_at = static_cast<int>(args.num("join-at", -1));

  std::vector<std::future<runtime::ServeResult>> futures;
  futures.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    if (rig.pool) {
      if (i == kill_at) {
        std::printf("chaos drill: killing replica 0 at request %d "
                    "(sim %.1f ms)\n", i, i * spacing);
        rig.pool->kill(0);
      }
      if (i == join_at) {
        const int id = rig.pool->join(rig.make_replica(), i * spacing);
        std::printf("chaos drill: replica %d joining at request %d "
                    "(sim %.1f ms)\n", id, i, i * spacing);
      }
    }
    futures.push_back(serving.submit(rig.image, i * spacing));
  }

  int by_outcome[4] = {0, 0, 0, 0};
  int degraded_rungs = 0, queue_full = 0, infeasible = 0, no_replica = 0;
  int redispatched_reqs = 0;
  double max_wait = 0.0;
  for (auto& f : futures) {
    const runtime::ServeResult r = f.get();
    ++by_outcome[static_cast<int>(r.outcome)];
    if (r.rung > 0) ++degraded_rungs;
    if (std::strcmp(r.shed_reason, "queue_full") == 0) ++queue_full;
    if (std::strcmp(r.shed_reason, "deadline_infeasible") == 0) ++infeasible;
    if (std::strcmp(r.shed_reason, "no_healthy_replica") == 0) ++no_replica;
    if (r.redispatches > 0) ++redispatched_reqs;
    max_wait = std::max(max_wait, r.queue_wait_ms);
  }

  std::printf("%d requests, spacing %.1f ms sim, SLO %s, queue %zu, "
              "%d replica(s)\n",
              requests, spacing, rig.slo.to_string().c_str(),
              serve_opts.queue_capacity, rig.replicas);
  Table t({"outcome", "count", "share"});
  for (int o = 0; o < 4; ++o)
    t.new_row()
        .add(runtime::to_string(static_cast<runtime::ServeOutcome>(o)))
        .add(static_cast<double>(by_outcome[o]))
        .add(100.0 * by_outcome[o] / requests);
  t.print(std::cout);
  std::printf("shed: %d queue_full, %d deadline_infeasible, "
              "%d no_healthy_replica; %d served at a degraded rung; "
              "%d redispatched off a dead replica; max queue wait %.0f ms "
              "sim\n",
              queue_full, infeasible, no_replica, degraded_rungs,
              redispatched_reqs, max_wait);
  std::printf("latency estimate (EWMA): %.1f ms sim\n",
              serving.latency_estimate_ms());
  if (serve_opts.max_batch > 1) {
    std::printf(
        "batching (max %zu, window %.0f ms sim, drain grace %.0f ms wall): "
        "%llu batches, %llu coalesced, avg group %.2f\n",
        serve_opts.max_batch, serve_opts.batch_window_ms,
        serve_opts.drain_grace_ms,
        static_cast<unsigned long long>(serving.batches()),
        static_cast<unsigned long long>(serving.coalesced()),
        serving.batches() > 0
            ? static_cast<double>(serving.batched_requests()) /
                  static_cast<double>(serving.batches())
            : 0.0);
    std::printf(
        "  flushes: %llu full, %llu window, %llu key, %llu drain\n",
        static_cast<unsigned long long>(serving.full_flushes()),
        static_cast<unsigned long long>(serving.window_flushes()),
        static_cast<unsigned long long>(serving.key_flushes()),
        static_cast<unsigned long long>(serving.drain_flushes()));
    std::printf(
        "  occupancy estimate (EWMA): %.1f ms sim (admission reserves this; "
        "latency estimate still judges deadlines)\n",
        serving.occupancy_estimate_ms());
  }
  if (rig.pool) {
    print_replica_board(*rig.pool);
  } else {
    const auto& breakers = rig.system->breakers();
    std::printf("breakers: %llu trips, %llu half-opens, %llu closes; "
                "%zu currently not closed\n",
                static_cast<unsigned long long>(breakers.trips()),
                static_cast<unsigned long long>(breakers.half_opens()),
                static_cast<unsigned long long>(breakers.closes()),
                breakers.open_count());
    for (std::size_t d = 1; d < rig.system->network().num_devices(); ++d)
      std::printf("  device %zu: %s\n", d, breakers.state_name(d));
    const auto transitions = breakers.transitions();
    if (!transitions.empty()) {
      std::printf("  transition log (%zu events, %llu dropped):\n",
                  transitions.size(),
                  static_cast<unsigned long long>(
                      breakers.dropped_transitions()));
      for (const auto& tr : transitions)
        std::printf("    t=%7.1f ms  device %zu  %s -> %s\n", tr.sim_ms,
                    tr.device, runtime::to_string(tr.from),
                    runtime::to_string(tr.to));
    }
  }
  if (rig.adapter) {
    rig.adapter->stop();  // settle the trainer before reading its counters
    print_adapt_panel(*rig.adapter, rig.system->network().num_devices());
  }
  std::printf("rolling SLO window (%d most recent): compliance %.1f%%, "
              "shed rate %.1f%%, burn rate %.2fx (target 95%%)\n",
              512, 100.0 * serving.slo_compliance(),
              100.0 * serving.slo_shed_rate(), serving.slo_burn_rate());
  std::printf("per-phase latency attribution (sim ms):\n");
  if (!print_phase_attribution())
    std::printf("  (no attributed requests)\n");
  if (!export_flight_records(args)) return 1;
  return 0;
}

int cmd_top(const Args& args) {
  BurstRig rig = make_burst_rig(args);
  runtime::ServingLayer& serving = *rig.serving;

  const int requests =
      std::max(1, static_cast<int>(args.num("requests", 128)));
  const double spacing = args.num("spacing", 5.0);
  const int frames =
      std::max(1, std::min(requests, static_cast<int>(args.num("frames", 8))));
  const double refresh_ms = args.num("refresh-ms", 0.0);
  const bool plain = args.num("plain", 0) != 0;
  const int kill_at = static_cast<int>(args.num("kill-at", -1));
  const int join_at = static_cast<int>(args.num("join-at", -1));

  int by_outcome[4] = {0, 0, 0, 0};
  int submitted = 0;
  // Each frame submits its slice of the burst, waits for the slice to
  // resolve (frames are progress checkpoints on the sim clock, not wall
  // samples), then redraws the dashboard from the live gauges.
  for (int frame = 1; frame <= frames; ++frame) {
    const int target = requests * frame / frames;
    std::vector<std::future<runtime::ServeResult>> slice;
    slice.reserve(static_cast<std::size_t>(target - submitted));
    for (; submitted < target; ++submitted) {
      if (rig.pool) {
        if (submitted == kill_at) rig.pool->kill(0);
        if (submitted == join_at)
          rig.pool->join(rig.make_replica(), submitted * spacing);
      }
      slice.push_back(serving.submit(rig.image, submitted * spacing));
    }
    for (auto& f : slice)
      ++by_outcome[static_cast<int>(f.get().outcome)];

    if (!plain) std::printf("\x1b[H\x1b[2J");  // home + clear
    std::printf("murmurctl top — frame %d/%d — %d/%d submitted — SLO %s\n",
                frame, frames, submitted, requests,
                rig.slo.to_string().c_str());
    std::printf("slo window: compliance %5.1f%%  shed %5.1f%%  "
                "burn %5.2fx  |  ladder rung %d\n",
                100.0 * serving.slo_compliance(),
                100.0 * serving.slo_shed_rate(), serving.slo_burn_rate(),
                serving.last_rung());
    std::printf("outcomes: %d completed, %d degraded, %d shed "
                "(%llu queue_full, %llu infeasible, %llu no_replica), "
                "%d failed\n",
                by_outcome[0], by_outcome[1], by_outcome[2],
                static_cast<unsigned long long>(serving.shed_queue_full()),
                static_cast<unsigned long long>(serving.shed_infeasible()),
                static_cast<unsigned long long>(serving.shed_no_replica()),
                by_outcome[3]);
    std::printf("estimates: latency %.1f ms sim, occupancy %.1f ms sim",
                serving.latency_estimate_ms(),
                serving.occupancy_estimate_ms());
    if (rig.serve_opts.max_batch > 1)
      std::printf("  |  batching: %llu batches, avg group %.2f",
                  static_cast<unsigned long long>(serving.batches()),
                  serving.batches() > 0
                      ? static_cast<double>(serving.batched_requests()) /
                            static_cast<double>(serving.batches())
                      : 0.0);
    std::printf("\n");
    if (rig.pool) {
      const auto& breakers = rig.pool->breakers();
      std::printf("replicas:");
      for (const auto& info : rig.pool->snapshot())
        std::printf("  [%d %s/%s load %d exec %llu]", info.id,
                    runtime::to_string(info.state),
                    runtime::to_string(info.breaker), info.load,
                    static_cast<unsigned long long>(info.executed));
      std::printf("  (%llu redispatched, %llu dropped transitions)\n",
                  static_cast<unsigned long long>(
                      rig.pool->redispatched()),
                  static_cast<unsigned long long>(
                      breakers.dropped_transitions()));
    } else {
      const auto& breakers = rig.system->breakers();
      std::printf("breakers:");
      for (std::size_t d = 1; d < rig.system->network().num_devices(); ++d)
        std::printf("  [%zu %s]", d, breakers.state_name(d));
      const auto transitions = breakers.transitions();
      std::printf("  (%llu trips, %zu transitions, %llu dropped)\n",
                  static_cast<unsigned long long>(breakers.trips()),
                  transitions.size(),
                  static_cast<unsigned long long>(
                      breakers.dropped_transitions()));
      for (std::size_t i = transitions.size() > 3 ? transitions.size() - 3 : 0;
           i < transitions.size(); ++i)
        std::printf("  t=%7.1f ms  device %zu  %s -> %s\n",
                    transitions[i].sim_ms, transitions[i].device,
                    runtime::to_string(transitions[i].from),
                    runtime::to_string(transitions[i].to));
    }
    if (rig.adapter && frame == frames) {
      rig.adapter->stop();
      print_adapt_panel(*rig.adapter, rig.system->network().num_devices());
    }
    std::printf("phase attribution (sim ms):\n");
    if (!print_phase_attribution()) std::printf("  (no samples yet)\n");
    std::fflush(stdout);
    if (refresh_ms > 0 && frame < frames)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(refresh_ms));
  }
  if (!export_flight_records(args)) return 1;
  return 0;
}

int cmd_info() {
  std::printf("Murmuration supernet search space:\n");
  std::printf("  submodels (excl. placement): %.3g\n",
              supernet::search_space_size());
  std::printf("  max submodel: %.0f MFLOPs, accuracy %.1f%%\n",
              supernet::CostModel::total_flops(
                  supernet::SubnetConfig::max_config()) / 1e6,
              supernet::AccuracyModel::max_accuracy());
  std::printf("  min submodel: %.0f MFLOPs, accuracy %.1f%%\n",
              supernet::CostModel::total_flops(
                  supernet::SubnetConfig::min_config()) / 1e6,
              supernet::AccuracyModel::min_accuracy());
  std::printf("  resident supernet: %.1f MB\n",
              static_cast<double>(supernet::CostModel::supernet_param_bytes()) /
                  (1024 * 1024));
  std::printf("fixed-model zoo (baselines):\n");
  for (const auto* m : supernet::model_zoo())
    std::printf("  %-14s %6.1f GFLOPs  %6.1f MB  top-1 %.1f%%\n",
                m->name.c_str(), m->total_flops() / 1e9,
                static_cast<double>(m->total_param_bytes()) / (1024 * 1024),
                m->top1_accuracy);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const Args args = parse(argc, argv);
  if (args.command == "train") return cmd_train(args);
  if (args.command == "decide") return cmd_decide(args);
  if (args.command == "sweep") return cmd_sweep(args);
  if (args.command == "trace") return cmd_trace(args);
  if (args.command == "metrics") return cmd_metrics(args);
  if (args.command == "overload") return cmd_overload(args);
  if (args.command == "top") return cmd_top(args);
  if (args.command == "info") return cmd_info();
  std::fprintf(stderr,
               "usage: murmurctl <train|decide|sweep|trace|metrics|overload|"
               "top|info> [--flag value ...]\n");
  return args.command.empty() ? 1 : 2;
}
