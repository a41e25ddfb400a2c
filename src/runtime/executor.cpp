#include "runtime/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "obs/trace.h"
#include "supernet/cost_model.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace murmur::runtime {

using supernet::SubnetConfig;

namespace {

/// The overlap of two extents; h or w is non-positive when they are disjoint.
TileExtent intersect(const TileExtent& a, const TileExtent& b) {
  const int h0 = std::max(a.h0, b.h0), w0 = std::max(a.w0, b.w0);
  return {h0, w0, std::min(a.h0 + a.h, b.h0 + b.h) - h0,
          std::min(a.w0 + a.w, b.w0 + b.w) - w0};
}

/// Paste region `o` from `src` (holding extent se) into `dst` (holding
/// extent de); `o` must lie inside both extents. Rows of the region are
/// contiguous in both tensors, so each copies with one memcpy instead of
/// per-element at() walks.
void paste_region(const Tensor& src, const TileExtent& se, Tensor& dst,
                  const TileExtent& de, const TileExtent& o) {
  const std::size_t sw = static_cast<std::size_t>(src.dim(3));
  const std::size_t dw = static_cast<std::size_t>(dst.dim(3));
  const std::size_t splane = static_cast<std::size_t>(src.dim(2)) * sw;
  const std::size_t dplane = static_cast<std::size_t>(dst.dim(2)) * dw;
  const int nc = dst.dim(0) * dst.dim(1);
  const float* sp =
      src.raw() + static_cast<std::size_t>(o.h0 - se.h0) * sw + (o.w0 - se.w0);
  float* dp = dst.raw() +
              static_cast<std::size_t>(o.h0 - de.h0) * dw + (o.w0 - de.w0);
  for (int p = 0; p < nc; ++p, sp += splane, dp += dplane) {
    const float* s = sp;
    float* d = dp;
    for (int h = 0; h < o.h; ++h, s += sw, d += dw)
      std::memcpy(d, s, static_cast<std::size_t>(o.w) * sizeof(float));
  }
}

std::uint64_t make_tag(int block, int tile, int piece) {
  return (static_cast<std::uint64_t>(block + 2) << 32) |
         (static_cast<std::uint64_t>(tile) << 16) |
         static_cast<std::uint64_t>(piece);
}

/// Concatenate same-shaped tensors along the leading (member) dimension.
/// Row-major layout makes each member a contiguous span, so the result
/// holds every member's bytes unchanged.
Tensor concat_members(const std::vector<Tensor>& parts) {
  assert(!parts.empty());
  std::vector<int> shape = parts.front().shape();
  shape[0] = 0;
  for (const auto& t : parts) {
    assert(t.rank() == shape.size() &&
           std::equal(shape.begin() + 1, shape.end(), t.shape().begin() + 1));
    shape[0] += t.dim(0);
  }
  Tensor out(shape);
  float* dst = out.raw();
  for (const auto& t : parts) {
    std::memcpy(dst, t.raw(), t.bytes());
    dst += t.size();
  }
  return out;
}

/// Copy members [b, e) of a batched tensor out as their own tensor.
Tensor slice_members(const Tensor& batch, int b, int e) {
  assert(0 <= b && b < e && e <= batch.dim(0));
  std::vector<int> shape = batch.shape();
  shape[0] = e - b;
  Tensor out(shape);
  std::memcpy(out.raw(), batch.raw() + static_cast<std::size_t>(b) *
                                           (batch.size() / batch.dim(0)),
              out.bytes());
  return out;
}

/// Run one unit forward over a fused batch split along the member
/// dimension into kernel_chunks(n) contiguous chunks on the kernel pool,
/// stacking the chunk outputs back in member order. A chunk is just a
/// smaller fused batch and per-sample accumulation order never depends on
/// the batch size, so every member's output is bitwise what the unsplit
/// forward produces.
template <typename Forward>
Tensor forward_members(const Tensor& x, Forward&& forward) {
  const auto n = static_cast<std::size_t>(x.dim(0));
  const std::size_t chunks = kernel_chunks(n);
  if (chunks <= 1) return forward(x);
  std::vector<Tensor> outs(chunks);
  kernel_parallel_for(chunks, [&](std::size_t c) {
    outs[c] = forward(slice_members(x, static_cast<int>(c * n / chunks),
                                    static_cast<int>((c + 1) * n / chunks)));
  });
  return concat_members(outs);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

DistributedExecutor::DistributedExecutor(supernet::Supernet& supernet,
                                         const netsim::Network& network)
    : supernet_(supernet),
      network_(network),
      transport_(network),
      pool_(std::max<std::size_t>(2, network.num_devices()), "device-pool") {}

void DistributedExecutor::set_failover(const FailoverOptions& failover) {
  failover_ = failover;
  transport_.set_fault_injector(failover_.injector);
  transport_.set_retry_policy(failover_.retry);
}

ExecutionReport DistributedExecutor::run(
    const Tensor& image, const SubnetConfig& config,
    const partition::PlacementPlan& plan, double sim_start_ms) {
  return std::move(run_batch({image}, config, plan, {sim_start_ms}).reports[0]);
}

BatchExecutionReport DistributedExecutor::run_batch(
    const std::vector<Tensor>& images, const SubnetConfig& config,
    const partition::PlacementPlan& plan, const std::vector<double>& sim_start_ms) {
  if (sim_start_ms.size() != images.size())
    throw std::invalid_argument(
        "run_batch: sim_start_ms has " + std::to_string(sim_start_ms.size()) +
        " entries for " + std::to_string(images.size()) + " images");
  for (const auto& img : images)
    if (img.rank() != 4 || img.dim(0) != 1 ||
        img.dim(2) != config.resolution || img.dim(3) != config.resolution ||
        img.shape() != images.front().shape())
      throw std::invalid_argument(
          "run_batch: every image must be one 1 x C x R x R member with R = "
          "config.resolution (" + std::to_string(config.resolution) +
          ") and the first image's shape");
  BatchExecutionReport out;
  if (images.empty()) return out;
  const auto t_start = std::chrono::steady_clock::now();

  if (failover_.injector != nullptr) {
    // Failover is a per-request protocol (per-request sim anchor, per-device
    // blame), so under fault injection each member walks on its own.
    out.reports.reserve(images.size());
    for (std::size_t i = 0; i < images.size(); ++i)
      out.reports.push_back(
          std::move(walk(images[i], config, plan, sim_start_ms[i])[0]));
  } else {
    const Tensor fused = images.size() > 1 ? concat_members(images) : Tensor();
    out.reports = walk(images.size() > 1 ? fused : images.front(), config,
                       plan, sim_start_ms.front());
    out.batched = true;
  }
  out.wall_ms = ms_since(t_start);
  return out;
}

std::vector<ExecutionReport> DistributedExecutor::walk(
    const Tensor& members, const SubnetConfig& config,
    partition::PlacementPlan plan, double sim_start_ms) {
  MURMUR_SPAN("exec.run", "exec", obs::maybe_histogram("stage.exec_run_ms"));
  const auto t_start = std::chrono::steady_clock::now();
  transport_.reset_stats();
  supernet_.activate(config);
  const int n = members.dim(0);
  // Disjoint tag namespace per walk: the per-destination mailboxes act as
  // double-buffered queues — a new walk's scatter can stage while the
  // previous walk's receives drain, with no tag aliasing between them.
  const std::uint64_t epoch =
      (batch_epoch_.fetch_add(1, std::memory_order_relaxed) & 0x7fffull) << 48;
  const auto btag = [epoch](int block, int tile, int piece) {
    return epoch | make_tag(block, tile, piece);
  };

  // Failover state (an injector implies a one-member walk). `sim_now`
  // tracks the request's position on the simulated clock (first-order:
  // per-block compute advances it) so scheduled faults hit the blocks
  // executing inside their window. `common` collects the report fields
  // every member shares, failover accounting included.
  netsim::FaultInjector* const inj = failover_.injector;
  const double slack_ms = failover_.recv_slack_ms;
  double sim_now = sim_start_ms;
  std::mutex fo_mutex;  // guards the failover counters from pool threads
  double fo_penalty_ms = 0.0;
  ExecutionReport common;
  if (inj) common.device_failures.assign(network_.num_devices(), 0);

  // Move a stem/head/tile assignment off a dead device: deal across the
  // currently-healthy set (device 0 — the request origin — as a last
  // resort, collapsing to local-only execution).
  const auto redispatch = [&](std::uint8_t& dev, int salt) {
    if (inj->device_up(dev, sim_now)) return;
    if (dev != 0) ++common.device_failures[dev];  // observed dead
    std::vector<std::uint8_t> up;
    for (std::size_t d = 0; d < network_.num_devices(); ++d)
      if (inj->device_up(d, sim_now))
        up.push_back(static_cast<std::uint8_t>(d));
    dev = up.empty() ? 0 : up[static_cast<std::size_t>(salt) % up.size()];
    ++common.redispatched_tiles;
    fo_penalty_ms += failover_.redispatch_penalty_ms;
    obs::add("runtime.failover.redispatch");
  };
  // A receive that timed out: charge `penalty_ms` and attribute the lost
  // message to the remote endpoint of its path (device 0, the request
  // origin, is never blamed: its link is loopback).
  const auto fall_back = [&](double penalty_ms, int src, int dst) {
    {
      std::lock_guard lock(fo_mutex);
      ++common.local_fallbacks;
      fo_penalty_ms += penalty_ms;
      const int culprit = src != 0 ? src : dst;
      if (culprit != 0)
        ++common.device_failures[static_cast<std::size_t>(culprit)];
    }
    obs::add("runtime.failover.local_fallback");
  };

  // Per-sample quantize + one ACTB envelope: each member's wire content is
  // what it would ship on its own (per-tensor scales are computed per
  // sample, never across the batch). Returns the simulated arrival.
  const auto send_batch = [&](const Tensor& region, QuantBits bits, int src,
                              int dst, std::uint64_t tag) {
    std::vector<QuantizedTensor> qts;
    qts.reserve(static_cast<std::size_t>(n));
    std::size_t wire = 0;
    for (int i = 0; i < n; ++i) {
      qts.push_back(n == 1 ? quantize(region, bits)
                           : quantize(slice_members(region, i, i + 1), bits));
      wire += qts.back().wire_bytes();
    }
    return transport_.send(src, dst, tag, encode_activation_batch(qts), wire,
                           sim_now);
  };
  // Blocking receive without an injector; with one, a receive against the
  // sim deadline that yields nullopt for a lost, late or corrupt message.
  const auto recv_batch = [&](int dst, std::uint64_t tag,
                              double deadline_ms) -> std::optional<Tensor> {
    std::optional<std::vector<QuantizedTensor>> qts;
    if (inj) {
      const auto msg = transport_.recv_for(dst, tag, deadline_ms);
      if (msg) qts = decode_activation_batch(msg->payload);
      if (!qts) return std::nullopt;
    } else {
      qts = decode_activation_batch(transport_.recv(dst, tag).payload);
      assert(qts.has_value());
    }
    std::vector<Tensor> deq;
    deq.reserve(qts->size());
    for (const auto& qt : *qts) deq.push_back(dequantize(qt));
    if (deq.size() == 1) return std::move(deq.front());
    return concat_members(deq);
  };
  const auto stem = [&](const Tensor& x) { return supernet_.forward_stem(x); };

  // Current full map plus ownership metadata per piece.
  struct Piece {
    TileExtent extent;
    int device = 0;
  };

  // --- Stem (device 0 holds the images) --------------------------------
  Tensor current;
  {
    if (inj) redispatch(plan.stem_device, 0);
    const int stem_dev = plan.stem_device;
    std::optional<Tensor> shipped;
    if (stem_dev != 0) {
      // Ship the raw images (fp32) to the stem device.
      const double arrival = send_batch(members, QuantBits::k32, 0, stem_dev,
                                        btag(-1, 0, 0));
      shipped = recv_batch(stem_dev, btag(-1, 0, 0), arrival + slack_ms);
      if (!shipped) {
        // Image lost in flight: collapse the stem back to device 0,
        // charging the wait the receiver burned before giving up.
        fall_back(arrival - sim_now + slack_ms, 0, stem_dev);
        plan.stem_device = 0;
      }
    }
    current = forward_members(shipped ? *shipped : members, stem);
    if (inj)
      sim_now += network_.device(static_cast<std::size_t>(plan.stem_device))
                     .throughput.compute_ms(
                         supernet::CostModel::stem_flops(config)) *
                 inj->slowdown(
                     static_cast<std::size_t>(plan.stem_device), sim_now);
  }
  std::vector<Piece> pieces{
      {TileExtent{0, 0, current.dim(2), current.dim(3)}, plan.stem_device}};
  QuantBits prev_quant = QuantBits::k32;  // stem output is fp32

  // --- Blocks -----------------------------------------------------------
  for (int b = 0; b < supernet::kMaxBlocks; ++b) {
    if (!config.block_active(b)) continue;
    const auto& bc = config.blocks[static_cast<std::size_t>(b)];
    supernet_.prepare_block(b);

    // Determine the tile layout actually executable for this tensor.
    // `current` holds the full map: every piece reads it at full-map
    // coordinates.
    const bool tiled = supernet_.block_can_partition(b, current);
    const TileExtent full{0, 0, current.dim(2), current.dim(3)};
    const auto extents =
        tiled ? tile_extents(current.dim(2), current.dim(3), bc.grid)
              : std::vector<TileExtent>{full};
    if (tiled) ++common.partitioned_blocks;
    auto& row = plan.device[static_cast<std::size_t>(b)];
    const auto tile_dev = [&](std::size_t t) -> int {
      return row[tiled ? t : 0];
    };

    // Failover: move tiles assigned to dead devices onto survivors BEFORE
    // any data ships, so the scatter routes to the effective placement.
    if (inj)
      for (std::size_t t = 0; t < extents.size(); ++t)
        redispatch(row[tiled ? t : 0], b + static_cast<int>(t));

    // Tile assembly/compute is dispatched FIRST so the scatter below
    // overlaps it: workers assemble local pieces and block in recv for
    // remote ones while this thread is still quantizing and sending. Under
    // an injector the receivers wait until the last expected arrival plus
    // slack before declaring a message lost; the scatter publishes that
    // deadline once its last send is out.
    std::promise<double> deadline;
    const std::shared_future<double> recv_deadline =
        deadline.get_future().share();
    std::vector<Tensor> outputs(extents.size());
    std::vector<std::future<void>> tile_futs;
    tile_futs.reserve(extents.size());
    for (std::size_t t = 0; t < extents.size(); ++t) {
      tile_futs.push_back(pool_.submit([&, t] {
        MURMUR_SPAN("exec.tile", "exec", obs::maybe_histogram("stage.tile_ms"));
        const int dev = tile_dev(t);
        const auto& de = extents[t];
        Tensor input({current.dim(0), current.dim(1), de.h, de.w});
        for (std::size_t p = 0; p < pieces.size(); ++p) {
          const TileExtent o = intersect(pieces[p].extent, de);
          if (o.h <= 0 || o.w <= 0) continue;
          if (pieces[p].device == dev) {
            paste_region(current, full, input, de, o);
            continue;
          }
          const double deadline_ms = inj ? recv_deadline.get() : 0.0;
          const auto got = recv_batch(
              dev, btag(b, static_cast<int>(t), static_cast<int>(p)),
              deadline_ms);
          if (!got) {
            // The region never arrived (or arrived corrupt/late): fall
            // back to the previous map, charging the burned wait plus one
            // re-fetch of the region at current conditions.
            const double bytes = static_cast<double>(o.h) * o.w *
                                 current.dim(1) * sizeof(float);
            fall_back(deadline_ms - sim_now +
                          network_.transfer_ms(
                              static_cast<std::size_t>(pieces[p].device),
                              static_cast<std::size_t>(dev), bytes),
                      pieces[p].device, dev);
            paste_region(current, full, input, de, o);
            continue;
          }
          paste_region(*got, o, input, de, o);
        }
        outputs[t] = forward_members(input, [&](const Tensor& x) {
          return supernet_.forward_block_tile(b, x);
        });
      }));
    }

    // Scatter (this thread): ship every cross-device overlap, cropped and
    // quantized at the *previous* block's wire precision.
    double block_arrival_ms = sim_now;
    for (std::size_t t = 0; t < extents.size(); ++t) {
      const int dev = tile_dev(t);
      for (std::size_t p = 0; p < pieces.size(); ++p) {
        const TileExtent o = intersect(pieces[p].extent, extents[t]);
        if (pieces[p].device == dev || o.h <= 0 || o.w <= 0) continue;
        block_arrival_ms = std::max(
            block_arrival_ms,
            send_batch(current.crop(o.h0, o.w0, o.h, o.w), prev_quant,
                       pieces[p].device, dev,
                       btag(b, static_cast<int>(t), static_cast<int>(p))));
      }
    }
    deadline.set_value(block_arrival_ms + slack_ms);
    // Every task references this frame: let all finish before any rethrows.
    for (auto& f : tile_futs) f.wait();
    for (auto& f : tile_futs) f.get();

    // Merge outputs into the next full map and update ownership. An
    // untiled block keeps the conv's own output map (an odd map into a
    // stride-2 block rounds up); tiled extents divide exactly by the
    // stride, which can_partition guarantees.
    pieces.clear();
    if (tiled) {
      const int s = supernet::CostModel::block_geometry(config, b).stride;
      std::vector<TileExtent> out_extents;
      for (std::size_t t = 0; t < extents.size(); ++t) {
        const auto& e = extents[t];
        out_extents.push_back({e.h0 / s, e.w0 / s, e.h / s, e.w / s});
        pieces.push_back(Piece{out_extents.back(), tile_dev(t)});
      }
      current = merge_tiles(outputs, out_extents, outputs.front().dim(1),
                            current.dim(2) / s, current.dim(3) / s);
    } else {
      current = std::move(outputs.front());
      pieces.push_back(Piece{TileExtent{0, 0, current.dim(2), current.dim(3)},
                             tile_dev(0)});
    }
    prev_quant = bc.quant;

    // Advance the request's simulated clock past this block (first-order:
    // slowest tile, straggler-adjusted) so later blocks see faults whose
    // windows open mid-request.
    if (inj) {
      double block_ms = 0.0;
      for (std::size_t t = 0; t < extents.size(); ++t) {
        const auto dev = static_cast<std::size_t>(tile_dev(t));
        block_ms = std::max(
            block_ms,
            network_.device(dev).throughput.compute_ms(
                supernet::CostModel::block_tile_effective_flops(config, b)) *
                inj->slowdown(dev, sim_now));
      }
      sim_now = std::max(sim_now, block_arrival_ms) + block_ms;
    }
  }

  // --- Head: gather to the head device, classify, return logits. -------
  Tensor logits;
  {
    if (inj) redispatch(plan.head_device, 0);
    const int head_dev = plan.head_device;
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      if (pieces[p].device == head_dev) continue;
      const auto& se = pieces[p].extent;
      const auto tag = btag(1000, 0, static_cast<int>(p));
      const double arrival =
          send_batch(current.crop(se.h0, se.w0, se.h, se.w), prev_quant,
                     pieces[p].device, head_dev, tag);
      const auto back = recv_batch(head_dev, tag, arrival + slack_ms);
      if (!back) {
        // Piece lost on the way to the head: the fp32 region already in
        // `current` serves (skipping the wire's quantization error);
        // charge the wait.
        fall_back(arrival - sim_now + slack_ms, pieces[p].device, head_dev);
        continue;
      }
      paste_region(*back, se, current,
                   TileExtent{0, 0, current.dim(2), current.dim(3)}, se);
    }
    logits = forward_members(
        current, [&](const Tensor& x) { return supernet_.forward_head(x); });
    if (head_dev != 0) {
      const double arrival = send_batch(logits, QuantBits::k32, head_dev, 0,
                                        btag(1001, 0, 0));
      if (auto got = recv_batch(0, btag(1001, 0, 0), arrival + slack_ms))
        logits = std::move(*got);
      else  // lost on the return hop; the local copy is identical (k32 wire)
        fall_back(arrival - sim_now + slack_ms, head_dev, 0);
    }
  }

  // Simulated latency from the analytic evaluator (identical cost model),
  // evaluated on the *effective* plan (post-redispatch) plus the honest
  // failover surcharge: burned waits, re-dispatch detection, retry backoff.
  // It depends only on the strategy, so every member of a fused walk gets
  // its standalone (batch == 1) value and attribution. Transport stats are
  // walk-level aggregates and wall time is split evenly: batching is a
  // wall-clock optimization, the simulated-time model is untouched.
  const partition::SubnetLatencyEvaluator eval(network_);
  common.transport = transport_.stats();
  common.failover_penalty_ms = fo_penalty_ms + common.transport.backoff_ms;
  common.sim_latency_ms =
      eval.evaluate(config, plan, nullptr,
                    obs::enabled() ? &common.attrib : nullptr)
          .total_ms +
      common.failover_penalty_ms;
  // Occupancy: a fused walk keeps the executor busy for the batch's
  // evaluated latency (bytes and compute scale with n, per-message delays
  // are amortized); each member owns an equal share of it.
  common.sim_occupancy_ms = n == 1 ? common.sim_latency_ms
                                   : eval.batch_latency_ms(config, plan, n) / n;
  common.degraded = common.redispatched_tiles > 0 ||
                    common.local_fallbacks > 0 ||
                    common.transport.drops > 0 ||
                    common.transport.timeouts > 0;
  if (obs::enabled()) {
    obs::add("exec.runs", static_cast<std::uint64_t>(n));
    obs::add("exec.partitioned_blocks",
             static_cast<std::uint64_t>(common.partitioned_blocks));
    obs::gauge_set("kernel.workspace_bytes",
                   static_cast<double>(Workspace::tls().capacity_bytes()));
  }
  common.wall_ms = ms_since(t_start) / n;
  std::vector<ExecutionReport> reports(static_cast<std::size_t>(n), common);
  for (int i = 0; i < n; ++i)
    reports[static_cast<std::size_t>(i)].logits =
        slice_members(logits, i, i + 1);
  return reports;
}

}  // namespace murmur::runtime
