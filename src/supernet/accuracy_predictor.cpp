#include "supernet/accuracy_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "supernet/accuracy_model.h"

namespace murmur::supernet {

namespace {
constexpr int kHidden = 64;

double relu(double x) noexcept { return x > 0 ? x : 0; }
}  // namespace

std::size_t config_feature_dim() noexcept {
  // resolution (1) + per-stage depth (5) + per-block kernel/quant/grid (3 each).
  return 1 + kNumStages + static_cast<std::size_t>(kMaxBlocks) * 3;
}

std::vector<double> encode_config(const SubnetConfig& config) {
  std::vector<double> f;
  f.reserve(config_feature_dim());
  f.push_back(resolution_index(config.resolution) /
              static_cast<double>(kResolutions.size() - 1));
  for (int d : config.stage_depth)
    f.push_back(depth_index(d) / static_cast<double>(kDepthOptions.size() - 1));
  for (int i = 0; i < kMaxBlocks; ++i) {
    const auto& b = config.blocks[static_cast<std::size_t>(i)];
    const double active = config.block_active(i) ? 1.0 : 0.0;
    f.push_back(active * kernel_index(b.kernel) /
                static_cast<double>(kKernelOptions.size() - 1));
    f.push_back(active * quant_index(b.quant) /
                static_cast<double>(kQuantOptions.size() - 1));
    f.push_back(active * grid_index(b.grid) /
                static_cast<double>(kGridOptions.size() - 1));
  }
  return f;
}

AccuracyPredictor::AccuracyPredictor(std::uint64_t seed) {
  Rng rng(seed);
  auto init = [&rng](DenseLayer& l, int in, int out) {
    l.in = in;
    l.out = out;
    l.w.resize(static_cast<std::size_t>(in) * out);
    l.b.assign(static_cast<std::size_t>(out), 0.0);
    const double s = std::sqrt(2.0 / in);
    for (auto& w : l.w) w = rng.normal(0.0, s);
  };
  const int d = static_cast<int>(config_feature_dim());
  init(l1_, d, kHidden);
  init(l2_, kHidden, kHidden);
  init(l3_, kHidden, 1);
}

std::vector<double> AccuracyPredictor::forward(
    std::span<const double> x, std::vector<std::vector<double>>* acts) const {
  auto dense = [](const DenseLayer& l, std::span<const double> in,
                  bool activation) {
    std::vector<double> out(static_cast<std::size_t>(l.out));
    for (int o = 0; o < l.out; ++o) {
      double s = l.b[static_cast<std::size_t>(o)];
      const double* wrow = &l.w[static_cast<std::size_t>(o) * l.in];
      for (int i = 0; i < l.in; ++i) s += wrow[i] * in[static_cast<std::size_t>(i)];
      out[static_cast<std::size_t>(o)] = activation ? relu(s) : s;
    }
    return out;
  };
  auto h1 = dense(l1_, x, true);
  auto h2 = dense(l2_, h1, true);
  auto y = dense(l3_, h2, false);
  if (acts) {
    acts->clear();
    acts->push_back(std::vector<double>(x.begin(), x.end()));
    acts->push_back(h1);
    acts->push_back(h2);
  }
  return y;
}

double AccuracyPredictor::train(const TrainOptions& opts) {
  Rng rng(opts.seed);
  // Sample configs and targets (centered around the model's mean so the
  // output head starts near the right scale).
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  xs.reserve(static_cast<std::size_t>(opts.samples));
  auto add = [&](const SubnetConfig& c) {
    xs.push_back(encode_config(c));
    ys.push_back(AccuracyModel::accuracy(c));
  };
  for (int i = 0; i < opts.samples; ++i) {
    // Anchor the corners of the space (1% each) so the predictor does not
    // extrapolate at the max/min submodels the runtime cares most about.
    if (i % 100 == 0)
      add(SubnetConfig::max_config());
    else if (i % 100 == 1)
      add(SubnetConfig::min_config());
    else
      add(SubnetConfig::random(rng));
  }
  double mean_y = 0;
  for (double y : ys) mean_y += y;
  mean_y /= static_cast<double>(ys.size());
  l3_.b[0] = mean_y;

  const std::size_t holdout = static_cast<std::size_t>(opts.samples) / 10;
  const std::size_t train_n = xs.size() - holdout;

  // Adam state.
  struct Adam {
    std::vector<double> m, v;
    void init(std::size_t n) { m.assign(n, 0); v.assign(n, 0); }
  };
  Adam a1w, a1b, a2w, a2b, a3w, a3b;
  a1w.init(l1_.w.size()); a1b.init(l1_.b.size());
  a2w.init(l2_.w.size()); a2b.init(l2_.b.size());
  a3w.init(l3_.w.size()); a3b.init(l3_.b.size());
  long t = 0;
  auto adam_step = [&](std::vector<double>& p, std::vector<double>& g,
                       Adam& st) {
    constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
    for (std::size_t i = 0; i < p.size(); ++i) {
      st.m[i] = b1 * st.m[i] + (1 - b1) * g[i];
      st.v[i] = b2 * st.v[i] + (1 - b2) * g[i] * g[i];
      p[i] -= opts.lr * (st.m[i] / bc1) / (std::sqrt(st.v[i] / bc2) + eps);
      g[i] = 0;
    }
  };

  std::vector<double> g1w(l1_.w.size()), g1b(l1_.b.size());
  std::vector<double> g2w(l2_.w.size()), g2b(l2_.b.size());
  std::vector<double> g3w(l3_.w.size()), g3b(l3_.b.size());
  std::vector<std::size_t> order(train_n);
  for (std::size_t i = 0; i < train_n; ++i) order[i] = i;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < train_n;
         start += static_cast<std::size_t>(opts.batch)) {
      const std::size_t end =
          std::min(train_n, start + static_cast<std::size_t>(opts.batch));
      for (std::size_t bi = start; bi < end; ++bi) {
        const auto& x = xs[order[bi]];
        std::vector<std::vector<double>> acts;
        const double pred = forward(x, &acts)[0];
        const double err = pred - ys[order[bi]];
        const double scale = 2.0 * err / static_cast<double>(end - start);
        // Backprop through l3 -> l2 -> l1.
        std::vector<double> d2(static_cast<std::size_t>(kHidden));
        for (int i = 0; i < kHidden; ++i) {
          g3w[static_cast<std::size_t>(i)] += scale * acts[2][static_cast<std::size_t>(i)];
          d2[static_cast<std::size_t>(i)] = scale * l3_.w[static_cast<std::size_t>(i)];
        }
        g3b[0] += scale;
        std::vector<double> d1(static_cast<std::size_t>(kHidden), 0.0);
        for (int o = 0; o < kHidden; ++o) {
          if (acts[2][static_cast<std::size_t>(o)] <= 0) continue;  // relu grad
          const double go = d2[static_cast<std::size_t>(o)];
          double* wrow = &l2_.w[static_cast<std::size_t>(o) * kHidden];
          double* grow = &g2w[static_cast<std::size_t>(o) * kHidden];
          for (int i = 0; i < kHidden; ++i) {
            grow[i] += go * acts[1][static_cast<std::size_t>(i)];
            d1[static_cast<std::size_t>(i)] += go * wrow[i];
          }
          g2b[static_cast<std::size_t>(o)] += go;
        }
        const int d = l1_.in;
        for (int o = 0; o < kHidden; ++o) {
          if (acts[1][static_cast<std::size_t>(o)] <= 0) continue;
          const double go = d1[static_cast<std::size_t>(o)];
          double* grow = &g1w[static_cast<std::size_t>(o) * d];
          for (int i = 0; i < d; ++i)
            grow[i] += go * acts[0][static_cast<std::size_t>(i)];
          g1b[static_cast<std::size_t>(o)] += go;
        }
      }
      ++t;
      adam_step(l1_.w, g1w, a1w);
      adam_step(l1_.b, g1b, a1b);
      adam_step(l2_.w, g2w, a2w);
      adam_step(l2_.b, g2b, a2b);
      adam_step(l3_.w, g3w, a3w);
      adam_step(l3_.b, g3b, a3b);
    }
  }
  trained_ = true;
  // Held-out RMSE.
  double se = 0.0;
  for (std::size_t i = train_n; i < xs.size(); ++i) {
    const double pred = forward(xs[i], nullptr)[0];
    se += (pred - ys[i]) * (pred - ys[i]);
  }
  return holdout ? std::sqrt(se / static_cast<double>(holdout)) : 0.0;
}

double AccuracyPredictor::predict(const SubnetConfig& config) const {
  const auto x = encode_config(config);
  return forward(x, nullptr)[0];
}

}  // namespace murmur::supernet
