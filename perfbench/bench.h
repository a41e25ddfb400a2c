// Shared declarations of the serving benchmark (see README.md).
//
// One binary, three modes:
//   train     train the deployment's policy once into a cache directory;
//   run       serve one workload for a fixed wall time, check every output
//             against an in-process oracle and print the metrics;
//   selftest  run every workload at a tiny size and show that the oracle
//             rejects a logit with one flipped bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/training.h"
#include "netsim/scenario.h"
#include "runtime/replica_pool.h"
#include "runtime/serving.h"
#include "runtime/system.h"

namespace murmur::perfbench {

// ---- The deployment under test (identical for every workload) -----------

/// Training steps are pinned: the caller's MURMUR_TRAIN_STEPS never applies.
constexpr int kTrainSteps = 3000;
constexpr std::uint64_t kTrainSeed = 1;
/// Executable supernet instance shared by the served systems and the
/// oracle's reference host.
constexpr double kExecWidth = 0.25;
constexpr int kClasses = 100;
constexpr std::uint64_t kSystemSeed = 2024;
/// Requests the closed-loop generator keeps outstanding on the wall clock:
/// one full micro-batch.
constexpr int kWindow = 8;
/// Distinct input images per run, generated from the workload seed.
constexpr int kImages = 16;

core::TrainSetup train_setup();

/// Load the cached checkpoint; fails (returns false) instead of training
/// when `cache_dir` holds none, so a timed run never trains by accident.
bool load_artifacts(const std::string& cache_dir, core::TrainedArtifacts& out);
std::string checkpoint_path(const std::string& cache_dir);

double now_ms();  // steady clock, ms since an arbitrary epoch

/// The serving path's center crop (runtime/system.cpp), re-stated so the
/// benchmark's own executor runs see the exact input the served one saw.
Tensor center_crop(const Tensor& image, int size);

// ---- Spans (traced runs only) ---------------------------------------------

/// In-memory span log. Spans carry a name, wall start/end, the id of the
/// span that caused them (0 = root) and a request id (-1 = none); they are
/// written out once, at exit. Recording is off in untraced runs.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t request = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t next_id();
  void record(const Span& s);

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Per-name {count, total ms, self ms}: self time is a span's duration
  /// minus the union of its child spans' intervals.
  struct Summary {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent = 0,
             std::int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  SpanLog::Span span_;
};

// ---- Workloads ------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  std::string out_dir;  // traces are written here
  /// Set-ups measured for setup_s (the last one serves the timed phase).
  int setups = 5;
};

/// One submitted request.
struct Record {
  int index = 0;
  int image = 0;
  double sim_arrival_ms = 0.0;
  core::Slo slo{};
  /// Remote link at submission (drift changes it between epochs).
  double link_mbps = 0.0, link_delay_ms = 0.0;
  double submit_ms = 0.0;  // wall, relative to the phase start
  double ready_ms = 0.0;
  int resolutions = 0;     // times the future resolved (must be 1)
  runtime::ServeResult result;
  bool served() const {
    return result.outcome == runtime::ServeOutcome::kCompleted ||
           result.outcome == runtime::ServeOutcome::kDegraded;
  }
};

/// Lifetime counters read from the serving layer after the phase.
struct Counters {
  std::uint64_t submitted = 0, completed = 0, degraded = 0, shed = 0,
                failed = 0;
};

/// What one timed serving phase produced.
struct PhaseResult {
  std::vector<Record> records;  // in submission order
  Counters counters;
  double wall_s = 0.0;          // phase start to last resolution
  int sim_cut = 0;              // sim metrics cover records [0, sim_cut)
  // Layer counters over the phase (deltas).
  std::uint64_t batches = 0, batched_requests = 0;
  std::uint64_t pool_planned = 0, pool_affinity = 0;
  std::uint64_t switches = 0;
  std::uint64_t memo_lookups = 0, memo_hits = 0;
  double peak_rss_mb = 0.0;
};

/// A ready-to-serve deployment plus what its set-up cost.
struct Deployment {
  std::string workload;
  /// Set-up time split: checkpoint load, system (and pool) construction,
  /// warm-up requests.
  double load_ms = 0.0, system_ms = 0.0, warmup_ms = 0.0;
  std::vector<Tensor> images;
  core::EnvOptions env_opts;  // the env's SLO and link envelope
  double sim_next_ms = 0.0;   // first free point on the sim clock
  // Declaration order is teardown order reversed: the serving layer drains
  // and joins before the pool or system it fronts goes away.
  std::unique_ptr<runtime::ReplicaPool> pool;
  std::unique_ptr<runtime::MurmurationSystem> system;
  std::unique_ptr<runtime::ServingLayer> serving;

  /// The system whose planning/decision layers the probes inspect (the
  /// single system, or the pool's planner replica 0).
  runtime::MurmurationSystem& planner();
  double setup_ms() const { return load_ms + system_ms + warmup_ms; }
};

bool known_workload(const std::string& name);
/// Requests the sim-clock metrics cover; a timed phase submits at least
/// this many, however slow the host.
int default_min_requests(const std::string& workload);

/// Build (load + construct + warm up) a deployment for `workload`.
std::unique_ptr<Deployment> make_deployment(const RunOptions& opts);

/// Serve the workload's request schedule for opts.seconds wall seconds (and
/// at least min_requests requests), closed-loop with kWindow outstanding.
PhaseResult run_phase(Deployment& dep, const RunOptions& opts, SpanLog& spans,
                      int min_requests);

// ---- Oracle ---------------------------------------------------------------

struct OracleReport {
  bool ok = true;
  std::vector<std::string> errors;  // first few failures
  std::uint64_t pairs_checked = 0;  // distinct (image, strategy) pairs
  std::uint64_t logits_checked = 0;
  void fail(const std::string& why);
};

/// Check accounting, logit sanity and bitwise equality against a reference
/// host run one request at a time through an executor this check owns.
OracleReport check_outputs(const PhaseResult& phase,
                           const std::vector<Tensor>& images,
                           const netsim::Network& network);

// ---- Layer probes (traced runs) ------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer metrics of one traced phase.
std::vector<Metric> probe_layers(Deployment& dep, const PhaseResult& phase,
                          const RunOptions& opts, SpanLog& spans);

// ---- Host context ---------------------------------------------------------

/// JSON object describing the host, build and checkpoint.
std::string host_context_json(const std::string& cache_dir);

// ---- Small statistics helpers --------------------------------------------

double quantile(std::vector<double> v, double q);  // linear interpolation
double median(std::vector<double> v);

}  // namespace murmur::perfbench
