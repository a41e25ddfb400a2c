#include "supernet/supernet.h"

#include <cassert>

namespace murmur::supernet {

namespace {
constexpr int kSEReduction = 4;
}

MBConvBlock::MBConvBlock(int in_ch, int out_ch, int stride, bool use_se,
                         Rng& rng)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      stride_(stride),
      expand_(in_ch, in_ch * kExpansion, 1, 1, 1, rng),
      dw_(in_ch * kExpansion, in_ch * kExpansion, kKernelOptions.back(),
          stride, in_ch * kExpansion, rng),
      project_(in_ch * kExpansion, out_ch, 1, 1, 1, rng),
      bn1_(in_ch * kExpansion),
      bn2_(in_ch * kExpansion),
      bn3_(out_ch),
      residual_(stride == 1 && in_ch == out_ch) {
  if (use_se) se_.emplace(in_ch * kExpansion, kSEReduction, rng);
}

bool MBConvBlock::can_partition(const Tensor& x,
                                PartitionGrid grid) const noexcept {
  if (grid.tiles() <= 1) return false;
  // Every tile offset and size must be a multiple of the stride so tile
  // outputs land on the same lattice as the unpartitioned output.
  const auto extents = tile_extents(x.dim(2), x.dim(3), grid);
  for (const auto& e : extents) {
    if (e.h0 % stride_ || e.w0 % stride_ || e.h % stride_ || e.w % stride_)
      return false;
    if (e.h < stride_ || e.w < stride_) return false;
  }
  return true;
}

Tensor MBConvBlock::forward_tile(const Tensor& tile, const BlockConfig& cfg) {
  assert(dw_.active_kernel() == cfg.kernel && "call prepare() first");
  Tensor x = expand_.forward(tile);
  bn1_.forward_inplace(x, true);
  // Depthwise conv with same-padding on the *tile* is exactly FDSP: the
  // interior edges see zeros where a halo exchange would have provided
  // neighbour pixels.
  x = dw_.forward(x);
  bn2_.forward_inplace(x, true);
  if (se_) se_->forward_into(x, x);  // per-tile squeeze (FDSP approximation)
  x = project_.forward(x);
  bn3_.forward_inplace(x, false);
  if (residual_) {
    // Residual is positional, so it is exact per tile.
    x.add_(tile);
  }
  return x;
}

Tensor MBConvBlock::forward(const Tensor& x, const BlockConfig& cfg) {
  prepare(cfg);
  if (!can_partition(x, cfg.grid)) return forward_tile(x, cfg);
  const auto in_extents = tile_extents(x.dim(2), x.dim(3), cfg.grid);
  std::vector<Tensor> out_tiles;
  std::vector<TileExtent> out_extents;
  out_tiles.reserve(in_extents.size());
  out_extents.reserve(in_extents.size());
  for (const auto& e : in_extents) {
    Tensor tile = x.crop(e.h0, e.w0, e.h, e.w);
    out_tiles.push_back(forward_tile(tile, cfg));
    out_extents.push_back(TileExtent{e.h0 / stride_, e.w0 / stride_,
                                     e.h / stride_, e.w / stride_});
  }
  return merge_tiles(out_tiles, out_extents, out_ch_, x.dim(2) / stride_,
                     x.dim(3) / stride_);
}

std::size_t MBConvBlock::param_bytes() const noexcept {
  std::size_t b = expand_.param_bytes() + dw_.param_bytes() +
                  project_.param_bytes() + bn1_.param_bytes() +
                  bn2_.param_bytes() + bn3_.param_bytes();
  if (se_) b += se_->param_bytes();
  return b;
}

void MBConvBlock::reload_weights(const MBConvBlock& src) {
  expand_.weights() = src.expand_.weights();
  dw_.weights() = src.dw_.weights();
  project_.weights() = src.project_.weights();
}

Supernet::Supernet(SupernetOptions opts) : opts_(opts), rng_(opts.seed) {
  const int stem_ch = scaled_channels(kStemChannels);
  stem_ = std::make_unique<nn::Conv2D>(3, stem_ch, 3, 2, 1, rng_);
  stem_bn_ = std::make_unique<nn::BatchNorm>(stem_ch);
  int prev_ch = stem_ch;
  for (int stage = 0; stage < kNumStages; ++stage) {
    const int out_ch = scaled_channels(kStageChannels[static_cast<std::size_t>(stage)]);
    for (int pos = 0; pos < kMaxBlocksPerStage; ++pos) {
      const int in_ch = pos == 0 ? prev_ch : out_ch;
      const int stride = pos == 0 ? kStageStrides[static_cast<std::size_t>(stage)] : 1;
      blocks_.push_back(std::make_unique<MBConvBlock>(
          in_ch, out_ch, stride, kStageUsesSE[static_cast<std::size_t>(stage)], rng_));
    }
    prev_ch = out_ch;
  }
  const int head_ch = scaled_channels(kHeadChannels);
  head_conv_ = std::make_unique<nn::Conv2D>(prev_ch, head_ch, 1, 1, 1, rng_);
  head_bn_ = std::make_unique<nn::BatchNorm>(head_ch);
  pool_ = std::make_unique<nn::GlobalAvgPool>();
  classifier_ = std::make_unique<nn::Linear>(head_ch, opts_.classes, rng_);
}

int Supernet::scaled_channels(int ch) const noexcept {
  if (opts_.width_mult >= 1.0) return ch;
  const int scaled = static_cast<int>(ch * opts_.width_mult);
  return std::max(4, (scaled / 4) * 4);
}

Tensor Supernet::forward_stem(const Tensor& image) {
  Tensor x = stem_->forward(image);
  stem_bn_->forward_inplace(x, true);
  return x;
}

Tensor Supernet::forward_block(int block, const Tensor& x) {
  assert(block >= 0 && block < kMaxBlocks);
  return blocks_[static_cast<std::size_t>(block)]->forward(
      x, active_.blocks[static_cast<std::size_t>(block)]);
}

void Supernet::prepare_block(int block) {
  assert(block >= 0 && block < kMaxBlocks);
  blocks_[static_cast<std::size_t>(block)]->prepare(
      active_.blocks[static_cast<std::size_t>(block)]);
}

Tensor Supernet::forward_block_tile(int block, const Tensor& tile) {
  assert(block >= 0 && block < kMaxBlocks);
  return blocks_[static_cast<std::size_t>(block)]->forward_tile(
      tile, active_.blocks[static_cast<std::size_t>(block)]);
}

bool Supernet::block_can_partition(int block, const Tensor& x) const noexcept {
  return blocks_[static_cast<std::size_t>(block)]->can_partition(
      x, active_.blocks[static_cast<std::size_t>(block)].grid);
}

Tensor Supernet::forward_head(const Tensor& features) {
  Tensor x = head_conv_->forward(features);
  head_bn_->forward_inplace(x, true);
  x = pool_->forward(x);
  return classifier_->forward(x);
}

Tensor Supernet::forward(const Tensor& image) {
  Tensor x = forward_stem(image);
  for (int b = 0; b < kMaxBlocks; ++b) {
    if (!active_.block_active(b)) continue;
    x = forward_block(b, x);
  }
  return forward_head(x);
}

std::size_t Supernet::param_bytes() const noexcept {
  std::size_t b = stem_->param_bytes() + stem_bn_->param_bytes() +
                  head_conv_->param_bytes() + head_bn_->param_bytes() +
                  classifier_->param_bytes();
  for (const auto& blk : blocks_) b += blk->param_bytes();
  return b;
}

void Supernet::simulate_weight_reload(const Supernet& src) {
  stem_->weights() = src.stem_->weights();
  head_conv_->weights() = src.head_conv_->weights();
  classifier_->weights() = src.classifier_->weights();
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    blocks_[i]->reload_weights(*src.blocks_[i]);
}

}  // namespace murmur::supernet
