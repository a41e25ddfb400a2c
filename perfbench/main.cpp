// Serving benchmark binary (see README.md for the metrics and workloads).
//
//   murmur_perfbench train    --cache-dir D
//   murmur_perfbench run      --workload steady|drift|pool --seed N
//                             --seconds S --trace 0|1 --cache-dir D
//                             --out-dir O
//   murmur_perfbench selftest --cache-dir D
//
// `run` prints an info line (host context, outcome counts, oracle verdict)
// and, last, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

namespace murmur::perfbench {
namespace {

using Args = std::map<std::string, std::string>;

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0)
      throw std::runtime_error(std::string("unexpected argument ") + argv[i]);
    a[argv[i] + 2] = argv[i + 1];
  }
  return a;
}

std::string need(const Args& a, const std::string& key) {
  const auto it = a.find(key);
  if (it == a.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string counts_json(const PhaseResult& p) {
  std::ostringstream os;
  os << "{\"submitted\": " << p.counters.submitted
     << ", \"completed\": " << p.counters.completed
     << ", \"degraded\": " << p.counters.degraded
     << ", \"shed\": " << p.counters.shed
     << ", \"failed\": " << p.counters.failed
     << ", \"sim_cut\": " << p.sim_cut << ", \"batches\": " << p.batches
     << ", \"batched_requests\": " << p.batched_requests << "}";
  return os.str();
}

std::string oracle_json(const OracleReport& o) {
  std::string s = "{\"ok\": " + std::string(o.ok ? "true" : "false") +
                  ", \"pairs\": " + std::to_string(o.pairs_checked) +
                  ", \"logits\": " + std::to_string(o.logits_checked) +
                  ", \"errors\": [";
  for (std::size_t i = 0; i < o.errors.size(); ++i)
    s += (i ? ", \"" : "\"") + o.errors[i] + "\"";
  return s + "]}";
}

/// The timed phase is cut into kSlices equal wall-time slices; throughput
/// and median latency are the medians of the per-slice values, so a burst
/// of interference from outside the process moves one slice, not the run.
/// The p99 needs every sample and is taken over the whole phase.
constexpr int kSlices = 5;

std::vector<Metric> end_to_end(const PhaseResult& p,
                               const std::vector<double>& setup_ms) {
  std::vector<double> wall, sim;
  std::vector<std::vector<double>> slice_wall(kSlices);
  std::vector<double> slice_done(kSlices, 0.0);
  const double slice_ms = p.wall_s * 1e3 / kSlices;
  double met = 0.0, acc = 0.0, served_cut = 0.0;
  for (const Record& r : p.records) {
    if (r.served()) {
      wall.push_back(r.ready_ms - r.submit_ms);
      const auto at = [&](double t) {
        return std::min(kSlices - 1, static_cast<int>(t / slice_ms));
      };
      slice_wall[static_cast<std::size_t>(at(r.submit_ms))].push_back(
          r.ready_ms - r.submit_ms);
      slice_done[static_cast<std::size_t>(at(r.ready_ms))] += 1.0;
    }
    if (r.index >= p.sim_cut || !r.served()) continue;
    const auto& inf = r.result.inference;
    served_cut += 1.0;
    if (inf.slo_met) met += 1.0;
    acc += inf.decision.predicted.accuracy;
    sim.push_back(r.result.queue_wait_ms + inf.sim_latency_ms);
  }
  std::vector<double> rate, p50;
  for (int k = 0; k < kSlices; ++k) {
    rate.push_back(slice_done[static_cast<std::size_t>(k)] / slice_ms * 1e3);
    p50.push_back(quantile(slice_wall[static_cast<std::size_t>(k)], 0.50));
  }
  return {
      {"setup_s", median(setup_ms) / 1e3, "s"},
      {"wall_req_per_s", median(rate), "1/s"},
      {"wall_latency_p50_ms", median(p50), "ms"},
      {"wall_latency_p99_ms", quantile(wall, 0.99), "ms"},
      {"slo_compliance", met / std::max(1, p.sim_cut), "ratio"},
      {"mean_accuracy_pct", served_cut > 0 ? acc / served_cut : 0.0, "%"},
      {"sim_latency_p50_ms", quantile(sim, 0.50), "ms"},
      {"sim_latency_p95_ms", quantile(sim, 0.95), "ms"},
      {"peak_rss_mb", p.peak_rss_mb, "MB"},
  };
}

int cmd_train(const Args& a) {
  const std::string dir = need(a, "cache-dir");
  (void)core::train_or_load(train_setup(), dir);
  if (checkpoint_path(dir).empty()) {
    std::fprintf(stderr, "training wrote no checkpoint into %s\n", dir.c_str());
    return 1;
  }
  std::printf("%s\n", host_context_json(dir).c_str());
  return 0;
}

int cmd_run(const Args& a) {
  RunOptions o;
  o.workload = need(a, "workload");
  if (!known_workload(o.workload))
    throw std::runtime_error("unknown workload " + o.workload);
  o.seed = std::stoull(need(a, "seed"));
  o.seconds = std::stod(need(a, "seconds"));
  o.trace = need(a, "trace") == "1";
  o.cache_dir = need(a, "cache-dir");
  o.out_dir = need(a, "out-dir");
  const int min_req = default_min_requests(o.workload);

  // Set up several times; report the median, serve on the last one.
  std::vector<double> setup_ms, load_ms, system_ms;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < o.setups; ++k) {
    dep.reset();
    dep = make_deployment(o);
    setup_ms.push_back(dep->setup_ms());
    load_ms.push_back(dep->load_ms);
    system_ms.push_back(dep->system_ms);
  }
  SpanLog untraced;
  const PhaseResult phase = run_phase(*dep, o, untraced, min_req);
  OracleReport oracle =
      check_outputs(phase, dep->images, dep->planner().network());

  std::vector<Metric> out;
  const PhaseResult* reported = &phase;
  PhaseResult traced;
  if (!o.trace) {
    out = end_to_end(phase, setup_ms);
  } else {
    // A fresh deployment serves the same schedule with spans on, so the
    // two phases differ only by tracing.
    dep.reset();
    dep = make_deployment(o);
    SpanLog spans;
    spans.set_enabled(true);
    traced = run_phase(*dep, o, spans, min_req);
    reported = &traced;
    const OracleReport o2 =
        check_outputs(traced, dep->images, dep->planner().network());
    for (const auto& e : o2.errors) oracle.fail("traced phase: " + e);
    oracle.pairs_checked += o2.pairs_checked;
    oracle.logits_checked += o2.logits_checked;
    out = probe_layers(*dep, traced, o, spans);
    const auto per_req = [](const PhaseResult& p) {
      return p.wall_s / static_cast<double>(std::max<std::size_t>(
                            1, p.records.size()));
    };
    out.push_back({"trace.overhead_share",
                   per_req(traced) / per_req(phase) - 1.0, "ratio"});
    out.push_back({"setup.load_ms", median(load_ms), "ms"});
    out.push_back({"setup.system_ms", median(system_ms), "ms"});
    const std::string path = o.out_dir + "/trace_" + o.workload + "_seed" +
                             std::to_string(o.seed) + ".json";
    if (!spans.write_chrome_trace(path))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"host\": %s, "
      "\"counts\": %s, \"oracle\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, host_context_json(o.cache_dir).c_str(),
      counts_json(*reported).c_str(), oracle_json(oracle).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              oracle.ok ? "true" : "false", reported->records.size(),
              static_cast<unsigned long long>(reported->counters.failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return 0;
}

/// Every workload at a tiny size: the oracle must pass on real outputs and
/// fail once a single logit bit is flipped.
int cmd_selftest(const Args& a) {
  bool all_ok = true;
  for (const char* w : {"steady", "drift", "pool"}) {
    RunOptions o;
    o.workload = w;
    o.seed = 7;
    o.seconds = 0.0;
    o.cache_dir = need(a, "cache-dir");
    o.setups = 1;
    auto dep = make_deployment(o);
    SpanLog off;
    PhaseResult phase = run_phase(*dep, o, off, 3 * kWindow);
    const auto& net = dep->planner().network();
    const OracleReport clean = check_outputs(phase, dep->images, net);

    bool flipped = false;
    for (Record& r : phase.records) {
      if (!r.served()) continue;
      float* p = r.result.inference.logits.raw();
      std::uint32_t bits = 0;
      std::memcpy(&bits, p, sizeof bits);
      bits ^= 1u;  // lowest mantissa bit of logit 0
      std::memcpy(p, &bits, sizeof bits);
      flipped = true;
      break;
    }
    const OracleReport corrupt = check_outputs(phase, dep->images, net);
    const bool ok = clean.ok && flipped && !corrupt.ok;
    all_ok = all_ok && ok;
    std::printf("selftest %-6s requests=%zu pairs=%llu clean=%s "
                "flipped_bit_rejected=%s -> %s\n",
                w, phase.records.size(),
                static_cast<unsigned long long>(clean.pairs_checked),
                clean.ok ? "pass" : "FAIL", corrupt.ok ? "no" : "yes",
                ok ? "ok" : "FAILED");
    for (const auto& e : clean.errors) std::printf("  clean: %s\n", e.c_str());
  }
  std::printf("selftest %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace murmur::perfbench

int main(int argc, char** argv) {
  using namespace murmur::perfbench;
  // The deployment is pinned: caller knobs that would change the trained
  // policy, force retraining or switch telemetry on are ignored.
  for (const char* knob : {"MURMUR_TRAIN_STEPS", "MURMUR_NO_CACHE",
                           "MURMUR_TELEMETRY", "MURMUR_CSV_DIR"})
    ::unsetenv(knob);
  murmur::obs::set_enabled(false);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s train|run|selftest --key value ...\n",
                 argv[0]);
    return 2;
  }
  try {
    const Args a = parse(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "train") return cmd_train(a);
    if (cmd == "run") return cmd_run(a);
    if (cmd == "selftest") return cmd_selftest(a);
    std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "murmur_perfbench: %s\n", e.what());
  }
  return 2;
}
