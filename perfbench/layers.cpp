// Per-layer metrics of a traced run. Serving-side counters come from the
// traced phase itself; every timed layer number comes from a span this file
// records around its own call into one module's public function, replaying
// what the phase served:
//
//   runtime.system   plan_request on a fresh system, same request sequence
//   core             StrategyCache::get, DecisionEngine::decide
//   runtime.supernet_host  switch_submodel between served configs
//   runtime.executor run_batch on an executor owned here
//   supernet         forward_stem / forward_block / forward_head
//   runtime.transport encode_activation / decode_activation
#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "core/decision.h"
#include "core/strategy_cache.h"
#include "runtime/executor.h"
#include "runtime/supernet_host.h"
#include "runtime/transport.h"
#include "supernet/cost_model.h"
#include "tensor/quantize.h"

namespace murmur::perfbench {

namespace {

using Strategy = core::MurmurationEnv::Strategy;

constexpr int kUnitReps = 5;     // forward passes per timed config
constexpr int kExecReps = 6;     // run_batch repetitions
constexpr int kDecideCap = 48;   // policy rollouts timed at most
constexpr int kCodecReps = 20;   // encode/decode repetitions per boundary

bool uses_remote(const Strategy& s) {
  const auto used = partition::plan_participants(s.plan, s.config, 64);
  return std::find(used.begin() + 1, used.end(), true) != used.end();
}

bool any_block(const supernet::SubnetConfig& c, auto pred) {
  for (int b = 0; b < supernet::kMaxBlocks; ++b)
    if (c.block_active(b) && pred(c.blocks[static_cast<std::size_t>(b)]))
      return true;
  return false;
}

/// Served strategies, most frequent first.
std::vector<std::pair<Strategy, int>> served_strategies(
    const PhaseResult& phase) {
  std::vector<std::pair<Strategy, int>> out;
  for (const Record& r : phase.records) {
    if (!r.served()) continue;
    const Strategy& s = r.result.inference.decision.strategy;
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first.config == s.config && e.first.plan == s.plan;
    });
    if (it == out.end())
      out.emplace_back(s, 1);
    else
      ++it->second;
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

/// Devices that execute block `b`'s tiles (or the stem/head endpoint).
std::vector<int> block_devices(const Strategy& s, int b) {
  std::vector<int> d;
  const auto& cfg = s.config.blocks[static_cast<std::size_t>(b)];
  for (int t = 0; t < cfg.grid.tiles(); ++t)
    d.push_back(s.plan.device[static_cast<std::size_t>(b)]
                             [static_cast<std::size_t>(t)]);
  std::sort(d.begin(), d.end());
  d.erase(std::unique(d.begin(), d.end()), d.end());
  return d;
}

struct UnitTimes {
  std::vector<double> ms;  // stem, block 0..19, head
  std::vector<Tensor> outputs;  // activation after each unit (same order)
};

/// Time every unit of `s.config` on `net` (median of kUnitReps passes).
UnitTimes time_units(supernet::Supernet& net, const Tensor& image,
                     const supernet::SubnetConfig& config, SpanLog& spans) {
  const int units = supernet::kMaxBlocks + 2;
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(units));
  UnitTimes out;
  net.activate(config);
  const Tensor crop = center_crop(image, config.resolution);
  for (int rep = 0; rep < kUnitReps; ++rep) {
    std::vector<Tensor> acts;
    const auto timed = [&](int unit, const char* name, auto&& fn) {
      ScopedSpan sp(spans, name);
      const double t0 = now_ms();
      Tensor y = fn();
      samples[static_cast<std::size_t>(unit)].push_back(now_ms() - t0);
      return y;
    };
    Tensor x = timed(0, "supernet.stem", [&] { return net.forward_stem(crop); });
    acts.push_back(x);
    for (int b = 0; b < supernet::kMaxBlocks; ++b) {
      if (!config.block_active(b)) {
        samples[static_cast<std::size_t>(b + 1)].push_back(0.0);
        acts.push_back(x);
        continue;
      }
      x = timed(b + 1, "supernet.block", [&] { return net.forward_block(b, x); });
      acts.push_back(x);
    }
    Tensor logits =
        timed(units - 1, "supernet.head", [&] { return net.forward_head(x); });
    acts.push_back(std::move(logits));
    if (rep == 0) out.outputs = std::move(acts);
  }
  for (auto& s : samples) out.ms.push_back(median(s));
  return out;
}

}  // namespace

std::vector<Metric> probe_layers(Deployment& dep, const PhaseResult& phase,
                                 const RunOptions& opts, SpanLog& spans) {
  std::vector<Metric> m;
  const auto add = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  double served = 0.0, remote = 0.0, tiled = 0.0, int8 = 0.0;
  for (const Record& r : phase.records) {
    if (!r.served()) continue;
    served += 1.0;
    const Strategy& s = r.result.inference.decision.strategy;
    if (uses_remote(s)) remote += 1.0;
    if (any_block(s.config, [](const auto& b) { return b.grid.tiles() > 1; }))
      tiled += 1.0;
    if (any_block(s.config, [](const auto& b) {
          return b.quant == QuantBits::k8;
        }))
      int8 += 1.0;
  }
  const double n_served = std::max(1.0, served);
  const double submitted =
      std::max<double>(1.0, static_cast<double>(phase.counters.submitted));

  // runtime.serving
  add("serving.submit_us_p50", median(spans.durations("serving.submit")) * 1e3,
      "us");
  const double batches = phase.batches > 0 ? static_cast<double>(phase.batches)
                                           : n_served;
  add("serving.batch_size_mean",
      phase.batches > 0 ? static_cast<double>(phase.batched_requests) / batches
                        : 1.0,
      "count");
  add("serving.shed_share", static_cast<double>(phase.counters.shed) / submitted,
      "ratio");

  // runtime.replica_pool
  add("pool.affinity_share",
      phase.pool_planned > 0 ? static_cast<double>(phase.pool_affinity) /
                                   static_cast<double>(phase.pool_planned)
                             : 0.0,
      "ratio");
  add("pool.switches_per_batch", static_cast<double>(phase.switches) / batches,
      "count");

  // core: memo share over the phase's real lookups.
  add("core.memo_hit_share",
      phase.memo_lookups > 0 ? static_cast<double>(phase.memo_hits) /
                                   static_cast<double>(phase.memo_lookups)
                             : 0.0,
      "ratio");

  // runtime.system: replay the served sequence through plan_request on a
  // fresh system (single caller, so reshaping its links is race-free).
  {
    core::TrainedArtifacts art;
    if (!load_artifacts(opts.cache_dir, art))
      throw std::runtime_error("no trained checkpoint in " + opts.cache_dir);
    {
      runtime::SystemOptions so;
      so.exec_width_mult = kExecWidth;
      so.classes = kClasses;
      so.seed = kSystemSeed;
      so.slo = dep.planner().slo();
      runtime::MurmurationSystem probe(std::move(art), so);
      std::vector<double> plan_us;
      for (const Record& r : phase.records) {
        if (r.result.outcome == runtime::ServeOutcome::kShed) continue;
        netsim::shape_remotes(probe.network(),
                              Bandwidth::from_mbps(r.link_mbps),
                              Delay::from_ms(r.link_delay_ms));
        runtime::RequestContext ctx;
        ctx.slo = r.slo;
        ctx.plan_slo = r.slo;
        ctx.sim_now_ms = r.sim_arrival_ms;
        ctx.seed = static_cast<std::uint64_t>(r.index) + 1;
        ScopedSpan sp(spans, "system.plan_request", 0, r.index);
        const double t0 = now_ms();
        (void)probe.plan_request(ctx);
        plan_us.push_back((now_ms() - t0) * 1e3);
      }
      add("system.plan_us_p50", quantile(plan_us, 0.50), "us");
      add("system.plan_us_p99", quantile(plan_us, 0.99), "us");

      // StrategyCache::get on the cache the replay filled.
      std::vector<double> get_us;
      for (const Record& r : phase.records) {
        if (!r.served()) continue;
        ScopedSpan sp(spans, "core.cache_get", 0, r.index);
        const double t0 = now_ms();
        (void)probe.cache().get(r.result.inference.constraint);
        get_us.push_back((now_ms() - t0) * 1e3);
      }
      add("core.cache_get_us_p50", median(get_us), "us");

      // DecisionEngine::decide on the constraints that missed the memo
      // (all served constraints when none missed).
      const core::DecisionEngine engine(probe.env(), probe.policy(),
                                        probe.replay());
      std::vector<const Record*> misses, all;
      for (const Record& r : phase.records) {
        if (!r.served()) continue;
        all.push_back(&r);
        if (!r.result.inference.cache_hit) misses.push_back(&r);
      }
      const auto& pick = misses.empty() ? all : misses;
      std::vector<double> decide_ms;
      for (std::size_t i = 0; i < pick.size() && i < kDecideCap; ++i) {
        Rng rng(static_cast<std::uint64_t>(pick[i]->index) + 1);
        ScopedSpan sp(spans, "core.decide", 0, pick[i]->index);
        const double t0 = now_ms();
        (void)engine.decide(pick[i]->result.inference.constraint, rng);
        decide_ms.push_back(now_ms() - t0);
      }
      add("core.policy_decide_ms_p50", median(decide_ms), "ms");
    }
  }

  // Reference host + owned executor for the module-level probes.
  runtime::SupernetHost host(supernet::SupernetOptions{
      .width_mult = kExecWidth, .classes = kClasses, .seed = kSystemSeed});
  runtime::DistributedExecutor exec(host.supernet(), dep.planner().network());
  const auto strategies = served_strategies(phase);
  const Tensor& image = dep.images.front();

  // runtime.supernet_host: real switches, alternating served configs.
  {
    std::vector<supernet::SubnetConfig> cfgs;
    for (const auto& [s, n] : strategies)
      if (std::find(cfgs.begin(), cfgs.end(), s.config) == cfgs.end())
        cfgs.push_back(s.config);
    if (cfgs.size() < 2) cfgs.push_back(supernet::SubnetConfig::max_config());
    if (cfgs[0] == cfgs[1]) cfgs[1] = supernet::SubnetConfig::min_config();
    std::vector<double> sw;
    for (int i = 0; i < 32; ++i) {
      ScopedSpan sp(spans, "host.switch");
      sw.push_back(host.switch_submodel(
          cfgs[static_cast<std::size_t>(i) % cfgs.size()]));
    }
    add("host.switch_ms_p50", median(sw), "ms");
    add("host.switches_per_request",
        static_cast<double>(phase.switches) / n_served, "count");
  }

  // supernet units, weighted over the (up to) three most-served configs.
  std::vector<double> unit_ms(supernet::kMaxBlocks + 2, 0.0);
  std::vector<double> unit_gflops(supernet::kMaxBlocks + 2, 0.0);
  std::vector<Tensor> boundary_acts;
  std::vector<QuantBits> boundary_bits;
  double weight = 0.0;
  const double w2 = kExecWidth * kExecWidth;
  for (std::size_t k = 0; k < strategies.size() && k < 3; ++k) {
    const auto& [s, n] = strategies[k];
    const UnitTimes ut = time_units(host.supernet(), image, s.config, spans);
    for (int u = 0; u < supernet::kMaxBlocks + 2; ++u) {
      double flops = 0.0;
      if (u == 0)
        flops = supernet::CostModel::stem_flops(s.config);
      else if (u == supernet::kMaxBlocks + 1)
        flops = supernet::CostModel::head_flops(s.config, kClasses);
      else
        flops = supernet::CostModel::block_flops(s.config, u - 1);
      const double ms = ut.ms[static_cast<std::size_t>(u)];
      unit_ms[static_cast<std::size_t>(u)] += n * ms;
      // Cost-model FLOPs describe the width-1.0 architecture; scaled by
      // width^2 they estimate the executed instance's work.
      if (ms > 0.0)
        unit_gflops[static_cast<std::size_t>(u)] += n * flops * w2 / (ms * 1e6);
    }
    weight += n;
    if (k == 0) {
      // Boundary activations of the most-served plan: a block whose output
      // is consumed on a different device set than it was produced on.
      int prev = -1;
      for (int b = 0; b <= supernet::kMaxBlocks; ++b) {
        if (b < supernet::kMaxBlocks && !s.config.block_active(b)) continue;
        const std::vector<int> here =
            b < supernet::kMaxBlocks ? block_devices(s, b)
                                     : std::vector<int>{s.plan.head_device};
        const std::vector<int> before =
            prev < 0 ? std::vector<int>{s.plan.stem_device}
                     : block_devices(s, prev);
        if (here != before) {
          boundary_acts.push_back(ut.outputs[static_cast<std::size_t>(prev + 1)]);
          boundary_bits.push_back(
              prev < 0 ? s.config.blocks[0].quant
                       : s.config.blocks[static_cast<std::size_t>(prev)].quant);
        }
        prev = b;
      }
      if (boundary_acts.empty()) {  // all-local plan: the stem output
        boundary_acts.push_back(ut.outputs.front());
        boundary_bits.push_back(s.config.blocks[0].quant);
      }
    }
  }
  char name[48];
  for (int u = 0; u < supernet::kMaxBlocks + 2; ++u) {
    if (u == 0)
      std::snprintf(name, sizeof name, "supernet.stem");
    else if (u == supernet::kMaxBlocks + 1)
      std::snprintf(name, sizeof name, "supernet.head");
    else
      std::snprintf(name, sizeof name, "supernet.block%02d", u - 1);
    const double wt = std::max(1.0, weight);
    add(std::string(name) + "_ms", unit_ms[static_cast<std::size_t>(u)] / wt,
        "ms");
    add(std::string(name) + ".gflops",
        unit_gflops[static_cast<std::size_t>(u)] / wt, "GFLOP/s");
  }

  // runtime.executor: run_batch of the workload's mean batch size on the
  // most-served strategy.
  if (!strategies.empty()) {
    const Strategy& s = strategies.front().first;
    const int members = std::clamp(
        static_cast<int>(std::lround(phase.batches > 0
                                         ? static_cast<double>(
                                               phase.batched_requests) /
                                               batches
                                         : 1.0)),
        1, 8);
    std::vector<Tensor> crops;
    for (int i = 0; i < members; ++i)
      crops.push_back(center_crop(
          dep.images[static_cast<std::size_t>(i) % dep.images.size()],
          s.config.resolution));
    const std::vector<double> starts(static_cast<std::size_t>(members), 0.0);
    host.switch_submodel(s.config);
    std::vector<double> per_req;
    runtime::TransportStats ts;
    bool fused = false;
    for (int rep = 0; rep < kExecReps; ++rep) {
      ScopedSpan sp(spans, "exec.run_batch");
      const double t0 = now_ms();
      const runtime::BatchExecutionReport br =
          exec.run_batch(crops, s.config, s.plan, starts);
      per_req.push_back((now_ms() - t0) / members);
      fused = br.batched;
      ts = runtime::TransportStats{};
      for (const auto& r : br.reports) {
        ts.messages += r.transport.messages;
        ts.payload_bytes += r.transport.payload_bytes;
        if (fused) break;  // fused reports share one batch-level aggregate
      }
    }
    const double ms_req = median(per_req);
    double unit_sum = 0.0;
    for (std::size_t u = 0; u < unit_ms.size(); ++u)
      unit_sum += unit_ms[u] / std::max(1.0, weight);
    add("exec.ms_per_request", ms_req, "ms");
    add("exec.glue_share", ms_req > 0.0 ? 1.0 - unit_sum / ms_req : 0.0,
        "ratio");
    add("transport.payload_bytes_per_request",
        static_cast<double>(ts.payload_bytes) / members, "B");
    add("transport.messages_per_request",
        static_cast<double>(ts.messages) / members, "count");
  }

  // runtime.transport codec on the boundary activations.
  {
    std::vector<double> enc_us, dec_us;
    for (std::size_t i = 0; i < boundary_acts.size(); ++i) {
      const QuantizedTensor qt = quantize(boundary_acts[i], boundary_bits[i]);
      for (int rep = 0; rep < kCodecReps; ++rep) {
        std::vector<std::uint8_t> bytes;
        {
          ScopedSpan sp(spans, "transport.encode");
          const double t0 = now_ms();
          bytes = runtime::encode_activation(qt);
          enc_us.push_back((now_ms() - t0) * 1e3);
        }
        ScopedSpan sp(spans, "transport.decode");
        const double t0 = now_ms();
        (void)runtime::decode_activation(bytes);
        dec_us.push_back((now_ms() - t0) * 1e3);
      }
    }
    add("transport.encode_us_p50", median(enc_us), "us");
    add("transport.decode_us_p50", median(dec_us), "us");
  }

  // partition strategy mix of the served requests.
  add("strategy.remote_share", remote / n_served, "ratio");
  add("strategy.tiled_share", tiled / n_served, "ratio");
  add("strategy.int8_share", int8 / n_served, "ratio");
  return m;
}

}  // namespace murmur::perfbench
