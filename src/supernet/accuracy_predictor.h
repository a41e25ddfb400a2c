// MLP accuracy predictor, trained against the analytic accuracy model.
//
// The paper uses "an accuracy predictor ... for accuracy prediction during
// RL policy training" (§6.1.1). We reproduce that component: a small MLP
// over the one-hot/ordinal encoding of a SubnetConfig, trained with Adam on
// sampled (config, accuracy) pairs. The RL stack can be pointed at either
// the predictor (paper-faithful) or the analytic model directly.
#pragma once

#include <span>
#include <vector>

#include "supernet/subnet_config.h"

namespace murmur::supernet {

/// Fixed-length feature encoding of a config (all values scaled to ~[0,1]).
std::vector<double> encode_config(const SubnetConfig& config);
std::size_t config_feature_dim() noexcept;

class AccuracyPredictor {
 public:
  struct TrainOptions {
    int samples = 4000;
    int epochs = 60;
    int batch = 64;
    double lr = 1e-3;
    std::uint64_t seed = 7;
  };

  explicit AccuracyPredictor(std::uint64_t seed = 7);

  /// Fit against the analytic accuracy model on randomly sampled configs.
  /// Returns final RMSE (accuracy percentage points) on a held-out split.
  double train(const TrainOptions& opts);
  double train() { return train(TrainOptions{}); }

  /// Predicted top-1 accuracy (percent).
  double predict(const SubnetConfig& config) const;

  bool trained() const noexcept { return trained_; }

 private:
  struct DenseLayer {
    std::vector<double> w;  // row-major [out][in]
    std::vector<double> b;
    int in = 0, out = 0;
  };
  std::vector<double> forward(std::span<const double> x,
                              std::vector<std::vector<double>>* acts) const;

  DenseLayer l1_, l2_, l3_;
  bool trained_ = false;
};

}  // namespace murmur::supernet
