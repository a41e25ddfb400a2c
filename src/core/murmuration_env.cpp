#include "core/murmuration_env.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>

#include "supernet/accuracy_model.h"

namespace murmur::core {

using rl::ConstraintPoint;
using rl::Head;
using rl::Outcome;
using rl::StepSpec;
using supernet::kDepthOptions;
using supernet::kGridOptions;
using supernet::kKernelOptions;
using supernet::kMaxBlocks;
using supernet::kNumStages;
using supernet::kQuantOptions;
using supernet::kResolutions;

// ---------------------------------------------------------------------------
// Schema walk
// ---------------------------------------------------------------------------

struct MurmurationEnv::Walk {
  Strategy strategy;
  bool complete = false;
  StepSpec next{};
  // Decision context for features.
  int cur_block = -1;
  int cur_tile = -1;
  double last_action_norm = 0.0;
  int steps = 0;

  Walk(const MurmurationEnv& env, std::span<const int> actions) {
    std::size_t i = 0;
    int last = -1, last_opts = 1;
    auto take = [&](Head head, int opts) -> std::optional<int> {
      if (i < actions.size()) {
        last = std::clamp(actions[i], 0, opts - 1);
        last_opts = opts;
        ++i;
        ++steps;
        return last;
      }
      next = StepSpec{head, opts};
      return std::nullopt;
    };
    auto finish_context = [&] {
      last_action_norm =
          last < 0 ? 0.0 : static_cast<double>(last) / std::max(1, last_opts - 1);
    };

    auto& cfg = strategy.config;
    auto& plan = strategy.plan;

    if (auto a = take(Head::kResolution, static_cast<int>(kResolutions.size()))) {
      cfg.resolution = kResolutions[static_cast<std::size_t>(*a)];
    } else {
      finish_context();
      return;
    }
    for (int s = 0; s < kNumStages; ++s) {
      if (auto a = take(Head::kDepth, static_cast<int>(kDepthOptions.size()))) {
        cfg.stage_depth[static_cast<std::size_t>(s)] =
            kDepthOptions[static_cast<std::size_t>(*a)];
      } else {
        finish_context();
        return;
      }
    }
    const int n_dev = static_cast<int>(env.num_devices());
    for (int b = 0; b < kMaxBlocks; ++b) {
      if (!cfg.block_active(b)) continue;
      cur_block = b;
      cur_tile = -1;
      auto& bc = cfg.blocks[static_cast<std::size_t>(b)];
      if (auto a = take(Head::kKernel, static_cast<int>(kKernelOptions.size()))) {
        bc.kernel = kKernelOptions[static_cast<std::size_t>(*a)];
      } else {
        finish_context();
        return;
      }
      if (auto a = take(Head::kQuant, static_cast<int>(kQuantOptions.size()))) {
        bc.quant = kQuantOptions[static_cast<std::size_t>(*a)];
      } else {
        finish_context();
        return;
      }
      if (auto a = take(Head::kGrid, static_cast<int>(kGridOptions.size()))) {
        bc.grid = kGridOptions[static_cast<std::size_t>(*a)];
      } else {
        finish_context();
        return;
      }
      for (int t = 0; t < bc.grid.tiles(); ++t) {
        cur_tile = t;
        if (auto a = take(Head::kDevice, n_dev)) {
          plan.device[static_cast<std::size_t>(b)][static_cast<std::size_t>(t)] =
              static_cast<std::uint8_t>(*a);
        } else {
          finish_context();
          return;
        }
      }
    }
    finish_context();
    complete = true;
  }
};

// ---------------------------------------------------------------------------
// Construction / normalization
// ---------------------------------------------------------------------------

MurmurationEnv::MurmurationEnv(netsim::Network network, EnvOptions opts)
    : network_(std::move(network)), opts_(opts) {
  const partition::SubnetLatencyEvaluator eval(network_);
  ref_latency_ms_ = eval.latency_ms(supernet::SubnetConfig::max_config(),
                                    partition::PlacementPlan::all_local());
  if (opts_.slo_type == SloType::kLatency) {
    if (opts_.slo_max <= 0.0) {
      // The interesting regime: the tight end is only reachable by
      // offloading/partitioning under good network conditions, the loose
      // end just admits the largest submodel run locally. (Relative to the
      // all-local max-submodel latency.)
      opts_.slo_min = 0.08 * ref_latency_ms_;
      opts_.slo_max = 1.1 * ref_latency_ms_;
    }
  } else if (opts_.slo_max <= 0.0) {
    opts_.slo_min = supernet::AccuracyModel::min_accuracy();
    opts_.slo_max = supernet::AccuracyModel::max_accuracy();
  }
}

MurmurationEnv::MurmurationEnv(netsim::Network network, SloType slo_type)
    : MurmurationEnv(std::move(network), [&] {
        EnvOptions o;
        o.slo_type = slo_type;
        return o;
      }()) {}

double MurmurationEnv::norm_slo(double value) const noexcept {
  const double span = opts_.slo_max - opts_.slo_min;
  double coord = (value - opts_.slo_min) / span;
  if (opts_.slo_type == SloType::kAccuracy) coord = 1.0 - coord;
  return std::clamp(coord, 0.0, 1.0);
}

double MurmurationEnv::denorm_slo(double coord) const noexcept {
  const double c =
      opts_.slo_type == SloType::kAccuracy ? 1.0 - coord : coord;
  return opts_.slo_min + c * (opts_.slo_max - opts_.slo_min);
}

double MurmurationEnv::norm_bw(double mbps) const noexcept {
  // Log scale: the paper's swarm sweep spans 5-500 Mbps on a log axis.
  const double lo = std::log(opts_.bw_min_mbps), hi = std::log(opts_.bw_max_mbps);
  return std::clamp((std::log(std::max(1e-3, mbps)) - lo) / (hi - lo), 0.0, 1.0);
}

double MurmurationEnv::denorm_bw(double coord) const noexcept {
  const double lo = std::log(opts_.bw_min_mbps), hi = std::log(opts_.bw_max_mbps);
  return std::exp(lo + coord * (hi - lo));
}

double MurmurationEnv::norm_delay(double ms) const noexcept {
  // Tightness orientation: smaller delay is more relaxed.
  return std::clamp(
      (opts_.delay_max_ms - ms) / (opts_.delay_max_ms - opts_.delay_min_ms),
      0.0, 1.0);
}

double MurmurationEnv::denorm_delay(double coord) const noexcept {
  return opts_.delay_max_ms - coord * (opts_.delay_max_ms - opts_.delay_min_ms);
}

// ---------------------------------------------------------------------------
// Constraint space
// ---------------------------------------------------------------------------

int MurmurationEnv::constraint_dims() const {
  return 1 + 2 * (static_cast<int>(num_devices()) - 1);
}

ConstraintPoint MurmurationEnv::sample_constraint(Rng& rng,
                                                  int active_dims) const {
  const int dims = constraint_dims();
  active_dims = std::clamp(active_dims, 1, dims);
  ConstraintPoint c;
  c.coords.resize(static_cast<std::size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    c.coords[static_cast<std::size_t>(d)] =
        d < active_dims
            ? static_cast<double>(rng.uniform_index(
                  static_cast<std::uint64_t>(opts_.grid_points))) /
                  (opts_.grid_points - 1)
            : 1.0;  // curriculum-frozen dims pinned at most relaxed
  }
  return c;
}

std::vector<ConstraintPoint> MurmurationEnv::validation_points(
    int count) const {
  // Deterministic stratified spread: per-dim strides coprime with the grid.
  static constexpr int kStrides[] = {1, 3, 7, 9};
  const int dims = constraint_dims();
  const int g = opts_.grid_points;
  std::vector<ConstraintPoint> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ConstraintPoint c;
    c.coords.resize(static_cast<std::size_t>(dims));
    for (int d = 0; d < dims; ++d) {
      const int stride = kStrides[d % 4];
      c.coords[static_cast<std::size_t>(d)] =
          static_cast<double>((i * stride + d * 2) % g) / (g - 1);
    }
    out.push_back(std::move(c));
  }
  return out;
}

double MurmurationEnv::slo_value(const ConstraintPoint& c) const {
  return denorm_slo(c.coords[0]);
}

netsim::NetworkConditions MurmurationEnv::conditions(
    const ConstraintPoint& c) const {
  netsim::NetworkConditions cond;
  const std::size_t n = num_devices();
  cond.bandwidth_mbps.resize(n);
  cond.delay_ms.resize(n);
  cond.bandwidth_mbps[0] = 1000.0;  // local access link is unshaped
  cond.delay_ms[0] = 0.05;
  for (std::size_t d = 1; d < n; ++d) {
    cond.bandwidth_mbps[d] = denorm_bw(c.coords[1 + 2 * (d - 1)]);
    cond.delay_ms[d] = denorm_delay(c.coords[2 + 2 * (d - 1)]);
  }
  return cond;
}

ConstraintPoint MurmurationEnv::make_constraint(
    double slo, const netsim::NetworkConditions& cond) const {
  ConstraintPoint c;
  c.coords.resize(static_cast<std::size_t>(constraint_dims()));
  c.coords[0] = norm_slo(slo);
  for (std::size_t d = 1; d < num_devices(); ++d) {
    c.coords[1 + 2 * (d - 1)] = norm_bw(cond.bandwidth_mbps[d]);
    c.coords[2 + 2 * (d - 1)] = norm_delay(cond.delay_ms[d]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Episode schema
// ---------------------------------------------------------------------------

StepSpec MurmurationEnv::next_step(std::span<const int> actions) const {
  const Walk w(*this, actions);
  assert(!w.complete);
  return w.next;
}

bool MurmurationEnv::done(std::span<const int> actions) const {
  return Walk(*this, actions).complete;
}

int MurmurationEnv::max_episode_len() const {
  return 1 + kNumStages +
         kMaxBlocks * (3 + supernet::kMaxPartitions);
}

int MurmurationEnv::head_options(Head head) const {
  switch (head) {
    case Head::kResolution: return static_cast<int>(kResolutions.size());
    case Head::kDepth: return static_cast<int>(kDepthOptions.size());
    case Head::kKernel: return static_cast<int>(kKernelOptions.size());
    case Head::kQuant: return static_cast<int>(kQuantOptions.size());
    case Head::kGrid: return static_cast<int>(kGridOptions.size());
    case Head::kDevice: return static_cast<int>(num_devices());
  }
  return 0;
}

std::size_t MurmurationEnv::feature_dim() const {
  return static_cast<std::size_t>(rl::kNumHeads) + 2 + 3 * num_devices() + 4;
}

std::vector<double> MurmurationEnv::features(
    const ConstraintPoint& c, std::span<const int> actions) const {
  const Walk w(*this, actions);
  std::vector<double> f;
  f.reserve(feature_dim());
  // Decision-type one-hot.
  for (int h = 0; h < rl::kNumHeads; ++h)
    f.push_back(!w.complete && static_cast<int>(w.next.head) == h ? 1.0 : 0.0);
  // Goal.
  f.push_back(opts_.slo_type == SloType::kLatency ? 0.0 : 1.0);
  f.push_back(c.coords[0]);
  // Task: per-device (type, bandwidth, delay) from the constraint point.
  const auto cond = conditions(c);
  for (std::size_t d = 0; d < num_devices(); ++d) {
    f.push_back(netsim::device_type_feature(network_.device(d).type));
    f.push_back(norm_bw(cond.bandwidth_mbps[d]));
    f.push_back(1.0 - norm_delay(cond.delay_ms[d]));  // raw-delay orientation
  }
  // Decision context.
  f.push_back(w.cur_block < 0 ? 0.0 : (w.cur_block + 1.0) / kMaxBlocks);
  f.push_back(w.cur_tile < 0 ? 0.0
                             : (w.cur_tile + 1.0) / supernet::kMaxPartitions);
  f.push_back(static_cast<double>(w.steps) / max_episode_len());
  f.push_back(w.last_action_norm);
  return f;
}

// ---------------------------------------------------------------------------
// Decode / encode
// ---------------------------------------------------------------------------

MurmurationEnv::Strategy MurmurationEnv::decode(
    std::span<const int> actions) const {
  Walk w(*this, actions);
  assert(w.complete && "decode requires a complete action sequence");
  return std::move(w.strategy);
}

std::vector<int> MurmurationEnv::encode(const Strategy& s) const {
  std::vector<int> actions;
  actions.reserve(static_cast<std::size_t>(max_episode_len()));
  actions.push_back(supernet::resolution_index(s.config.resolution));
  for (int st = 0; st < kNumStages; ++st)
    actions.push_back(
        supernet::depth_index(s.config.stage_depth[static_cast<std::size_t>(st)]));
  for (int b = 0; b < kMaxBlocks; ++b) {
    if (!s.config.block_active(b)) continue;
    const auto& bc = s.config.blocks[static_cast<std::size_t>(b)];
    actions.push_back(supernet::kernel_index(bc.kernel));
    actions.push_back(supernet::quant_index(bc.quant));
    actions.push_back(supernet::grid_index(bc.grid));
    for (int t = 0; t < bc.grid.tiles(); ++t)
      actions.push_back(static_cast<int>(
          s.plan.device[static_cast<std::size_t>(b)][static_cast<std::size_t>(t)]));
  }
  return actions;
}

// ---------------------------------------------------------------------------
// Evaluation / reward
// ---------------------------------------------------------------------------

double MurmurationEnv::accuracy_of(const supernet::SubnetConfig& config) const {
  return predictor_ && predictor_->trained()
             ? predictor_->predict(config)
             : supernet::AccuracyModel::accuracy(config);
}

Outcome MurmurationEnv::evaluate_strategy(const ConstraintPoint& c,
                                          const Strategy& s) const {
  netsim::Network net = network_;
  net.apply(conditions(c));
  const partition::SubnetLatencyEvaluator eval(net);
  Outcome o;
  o.latency_ms = eval.latency_ms(s.config, s.plan);
  o.accuracy = accuracy_of(s.config);
  return o;
}

Outcome MurmurationEnv::evaluate(const ConstraintPoint& c,
                                 std::span<const int> actions) const {
  return evaluate_strategy(c, decode(actions));
}

bool MurmurationEnv::satisfies(const ConstraintPoint& c,
                               const Outcome& o) const {
  const double slo = slo_value(c);
  return opts_.slo_type == SloType::kLatency ? o.latency_ms <= slo
                                             : o.accuracy >= slo;
}

double MurmurationEnv::reward(const ConstraintPoint& c,
                              const Outcome& o) const {
  if (!satisfies(c, o)) return 0.0;  // Eq. 2/3: zero reward outside the SLO
  if (opts_.slo_type == SloType::kLatency)
    return opts_.alpha * o.accuracy / 100.0 - opts_.beta;  // Eq. 2
  // Eq. 3 with latency normalized by twice the all-local max-submodel
  // latency; the 0.2 floor keeps "satisfied" strictly better than "not".
  const double lnorm =
      std::clamp(1.0 - o.latency_ms / (2.0 * ref_latency_ms_), 0.0, 1.0);
  return 0.2 + opts_.alpha * lnorm;
}

ConstraintPoint MurmurationEnv::relabel(const ConstraintPoint& c,
                                        const Outcome& o) const {
  ConstraintPoint tight = c;
  tight.coords[0] = opts_.slo_type == SloType::kLatency
                        ? norm_slo(o.latency_ms)
                        : norm_slo(o.accuracy);
  return tight;
}

std::vector<int> MurmurationEnv::heuristic_mutation(std::span<const int> actions,
                                                    Rng& rng) const {
  Strategy s = decode(actions);
  const int n_dev = static_cast<int>(num_devices());
  if (rng.bernoulli(0.5)) {
    // Consolidate: every unit onto one device (all-local or clean offload).
    const auto dev = static_cast<std::uint8_t>(rng.uniform_index(
        static_cast<std::uint64_t>(n_dev)));
    s.plan.stem_device = dev == 0 ? 0 : dev;
    s.plan.head_device = s.plan.stem_device;
    for (auto& row : s.plan.device) row.fill(dev);
    if (rng.bernoulli(0.5))
      for (auto& b : s.config.blocks) b.grid = PartitionGrid{1, 1};
  } else {
    // Spread: one grid for all blocks; tile t of every block lives on
    // device (base + t) mod n, so inter-block traffic vanishes.
    const PartitionGrid grid =
        supernet::kGridOptions[1 + rng.uniform_index(3)];
    const int base =
        static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n_dev)));
    for (int b = 0; b < kMaxBlocks; ++b) {
      s.config.blocks[static_cast<std::size_t>(b)].grid = grid;
      for (int t = 0; t < grid.tiles(); ++t)
        s.plan.device[static_cast<std::size_t>(b)][static_cast<std::size_t>(t)] =
            static_cast<std::uint8_t>((base + t) % n_dev);
    }
  }
  return encode(s);
}

std::vector<rl::Episode> MurmurationEnv::bootstrap_episodes() const {
  std::vector<rl::Episode> out;
  for (const auto& config : {supernet::SubnetConfig::max_config(),
                             supernet::SubnetConfig::min_config()}) {
    Strategy s{config, partition::PlacementPlan::all_local()};
    ConstraintPoint c;
    c.coords.assign(static_cast<std::size_t>(constraint_dims()), 1.0);
    rl::Episode ep;
    ep.actions = encode(s);
    ep.outcome = evaluate_strategy(c, s);
    ep.constraint = relabel(c, ep.outcome);
    ep.reward = reward(ep.constraint, ep.outcome);
    ep.satisfied = true;
    out.push_back(std::move(ep));
  }
  return out;
}

}  // namespace murmur::core
