#include "runtime/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
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

/// Paste the intersection of `src` (at extent se) into `dst` (at extent de).
/// Rows of the overlap are contiguous in both tensors, so each copies with
/// one memcpy instead of per-element at() walks.
void paste_overlap(const Tensor& src, const TileExtent& se, Tensor& dst,
                   const TileExtent& de) {
  const int h0 = std::max(se.h0, de.h0), h1 = std::min(se.h0 + se.h, de.h0 + de.h);
  const int w0 = std::max(se.w0, de.w0), w1 = std::min(se.w0 + se.w, de.w0 + de.w);
  const int wlen = w1 - w0;
  if (wlen <= 0 || h1 <= h0) return;
  const std::size_t sw = static_cast<std::size_t>(src.dim(3));
  const std::size_t dw = static_cast<std::size_t>(dst.dim(3));
  const std::size_t splane = static_cast<std::size_t>(src.dim(2)) * sw;
  const std::size_t dplane = static_cast<std::size_t>(dst.dim(2)) * dw;
  const int nc = dst.dim(0) * dst.dim(1);
  const float* sp = src.raw() +
                    static_cast<std::size_t>(h0 - se.h0) * sw + (w0 - se.w0);
  float* dp = dst.raw() +
              static_cast<std::size_t>(h0 - de.h0) * dw + (w0 - de.w0);
  for (int p = 0; p < nc; ++p, sp += splane, dp += dplane) {
    const float* s = sp;
    float* d = dp;
    for (int h = h0; h < h1; ++h, s += sw, d += dw)
      std::memcpy(d, s, static_cast<std::size_t>(wlen) * sizeof(float));
  }
}

bool overlaps(const TileExtent& a, const TileExtent& b) {
  return std::max(a.h0, b.h0) < std::min(a.h0 + a.h, b.h0 + b.h) &&
         std::max(a.w0, b.w0) < std::min(a.w0 + a.w, b.w0 + b.w);
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
    const partition::PlacementPlan& plan_in, double sim_start_ms) {
  MURMUR_SPAN("exec.run", "exec", obs::maybe_histogram("stage.exec_run_ms"));
  const auto t_start = std::chrono::steady_clock::now();
  transport_.reset_stats();
  supernet_.activate(config);

  ExecutionReport report;
  partition::PlacementPlan plan = plan_in;  // failover may rewrite entries

  // Failover state. `sim_now` tracks the request's position on the
  // simulated clock (first-order: per-block compute advances it) so
  // scheduled faults hit the blocks executing inside their window.
  netsim::FaultInjector* const inj = failover_.injector;
  double sim_now = sim_start_ms;
  std::mutex fo_mutex;  // guards the counters below from pool threads
  double fo_penalty_ms = 0.0;
  int fo_fallbacks = 0;
  if (inj) report.device_failures.assign(network_.num_devices(), 0);
  // Attribute a lost in-flight message to the remote endpoint of its path
  // (device 0, the request origin, is never blamed: its link is loopback).
  const auto blame = [&](int src, int dst) {
    const int culprit = src != 0 ? src : dst;
    if (culprit != 0) ++report.device_failures[static_cast<std::size_t>(culprit)];
  };

  // Move a stem/head/tile assignment off a dead device: deal across the
  // currently-healthy set (device 0 — the request origin — as a last
  // resort, collapsing to local-only execution).
  const auto pick_survivor = [&](int salt) -> int {
    std::vector<int> up;
    for (std::size_t d = 0; d < network_.num_devices(); ++d)
      if (inj->device_up(d, sim_now)) up.push_back(static_cast<int>(d));
    if (up.empty()) return 0;
    return up[static_cast<std::size_t>(salt) % up.size()];
  };
  const auto redispatch = [&](std::uint8_t& dev, int salt) {
    if (inj->device_up(dev, sim_now)) return;
    if (dev != 0) ++report.device_failures[dev];  // observed dead
    dev = static_cast<std::uint8_t>(pick_survivor(salt));
    ++report.redispatched_tiles;
    fo_penalty_ms += failover_.redispatch_penalty_ms;
    obs::add("runtime.failover.redispatch");
  };

  // Current full map plus ownership metadata per piece.
  struct Piece {
    TileExtent extent;
    int device = 0;
  };

  // --- Stem (device 0 holds the image) --------------------------------
  Tensor current;
  {
    if (inj) redispatch(plan.stem_device, 0);
    const int stem_dev = plan.stem_device;
    if (stem_dev != 0) {
      // Ship the raw image (fp32) to the stem device.
      auto payload = encode_activation(quantize(image, QuantBits::k32));
      const double arrival =
          transport_.send(0, stem_dev, make_tag(-1, 0, 0), std::move(payload),
                          image.bytes(), inj ? sim_now : 0.0);
      if (inj) {
        const auto msg = transport_.recv_for(
            stem_dev, make_tag(-1, 0, 0), arrival + failover_.recv_slack_ms);
        std::optional<QuantizedTensor> qt;
        if (msg) qt = decode_activation(msg->payload);
        if (qt) {
          current = supernet_.forward_stem(dequantize(*qt));
        } else {
          // Image lost in flight: collapse the stem back to device 0,
          // charging the wait the receiver burned before giving up.
          ++report.local_fallbacks;
          fo_penalty_ms += arrival - sim_now + failover_.recv_slack_ms;
          blame(0, stem_dev);
          obs::add("runtime.failover.local_fallback");
          plan.stem_device = 0;
          current = supernet_.forward_stem(image);
        }
      } else {
        const auto msg = transport_.recv(stem_dev, make_tag(-1, 0, 0));
        const auto qt = decode_activation(msg.payload);
        assert(qt.has_value());
        current = supernet_.forward_stem(dequantize(*qt));
      }
    } else {
      current = supernet_.forward_stem(image);
    }
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
    const bool tiled = supernet_.block_can_partition(b, current);
    const auto extents =
        tiled ? tile_extents(current.dim(2), current.dim(3), bc.grid)
              : std::vector<TileExtent>{
                    TileExtent{0, 0, current.dim(2), current.dim(3)}};
    if (tiled) ++report.partitioned_blocks;

    // Failover: move tiles assigned to dead devices onto survivors BEFORE
    // any data ships, so phase 1 routes to the effective placement.
    if (inj)
      for (std::size_t t = 0; t < extents.size(); ++t)
        redispatch(plan.device[static_cast<std::size_t>(b)][tiled ? t : 0],
                   b + static_cast<int>(t));

    // Phase 1 (main thread): ship every cross-device overlap.
    double block_arrival_ms = sim_now;
    for (std::size_t t = 0; t < extents.size(); ++t) {
      const int dev =
          plan.device[static_cast<std::size_t>(b)][tiled ? t : 0];
      for (std::size_t p = 0; p < pieces.size(); ++p) {
        if (pieces[p].device == dev || !overlaps(extents[t], pieces[p].extent))
          continue;
        // Crop the needed region, quantize at the *previous* block's wire
        // precision, serialize, send.
        const auto& se = pieces[p].extent;
        const auto& de = extents[t];
        const int h0 = std::max(se.h0, de.h0), h1 = std::min(se.h0 + se.h, de.h0 + de.h);
        const int w0 = std::max(se.w0, de.w0), w1 = std::min(se.w0 + se.w, de.w0 + de.w);
        Tensor crop = current.crop(h0, w0, h1 - h0, w1 - w0);
        const QuantizedTensor qt = quantize(crop, prev_quant);
        const std::size_t wire = qt.wire_bytes();
        const double arrival = transport_.send(
            pieces[p].device, dev,
            make_tag(b, static_cast<int>(t), static_cast<int>(p)),
            encode_activation(qt), wire, inj ? sim_now : 0.0);
        block_arrival_ms = std::max(block_arrival_ms, arrival);
      }
    }
    // Receivers wait until the last expected arrival plus slack before
    // declaring a message lost.
    const double recv_deadline_ms = block_arrival_ms + failover_.recv_slack_ms;

    // Phase 2 (pooled): each tile assembles its input and runs.
    std::vector<Tensor> outputs(extents.size());
    pool_.parallel_for(extents.size(), [&](std::size_t t) {
      MURMUR_SPAN("exec.tile", "exec",
                  obs::maybe_histogram("stage.tile_ms"));
      const int dev =
          plan.device[static_cast<std::size_t>(b)][tiled ? t : 0];
      const auto& de = extents[t];
      Tensor input({current.dim(0), current.dim(1), de.h, de.w});
      for (std::size_t p = 0; p < pieces.size(); ++p) {
        if (!overlaps(de, pieces[p].extent)) continue;
        if (pieces[p].device == dev) {
          paste_overlap(current, pieces[p].extent, input, de);
          continue;
        }
        const auto tag =
            make_tag(b, static_cast<int>(t), static_cast<int>(p));
        std::optional<QuantizedTensor> qt;
        if (inj) {
          const auto msg = transport_.recv_for(dev, tag, recv_deadline_ms);
          if (msg) qt = decode_activation(msg->payload);
          if (!qt) {
            // The region never arrived (or arrived corrupt/late): fall
            // back to the previous map, charging the burned wait plus one
            // re-fetch of the region at current conditions.
            const auto& se = pieces[p].extent;
            const int h = std::min(se.h0 + se.h, de.h0 + de.h) -
                          std::max(se.h0, de.h0);
            const int w = std::min(se.w0 + se.w, de.w0 + de.w) -
                          std::max(se.w0, de.w0);
            const double bytes = static_cast<double>(std::max(0, h)) *
                                 std::max(0, w) * current.dim(1) *
                                 sizeof(float);
            {
              std::lock_guard lock(fo_mutex);
              ++fo_fallbacks;
              fo_penalty_ms +=
                  recv_deadline_ms - sim_now +
                  network_.transfer_ms(
                      static_cast<std::size_t>(pieces[p].device),
                      static_cast<std::size_t>(dev), bytes);
              blame(pieces[p].device, dev);
            }
            obs::add("runtime.failover.local_fallback");
            paste_overlap(current, pieces[p].extent, input, de);
            continue;
          }
        } else {
          const auto msg = transport_.recv(dev, tag);
          qt = decode_activation(msg.payload);
          assert(qt.has_value());
        }
        const Tensor got = dequantize(*qt);
        const auto& se = pieces[p].extent;
        const TileExtent ge{std::max(se.h0, de.h0), std::max(se.w0, de.w0),
                            got.dim(2), got.dim(3)};
        paste_overlap(got, ge, input, de);
      }
      outputs[t] = supernet_.forward_block_tile(static_cast<int>(b), input);
    });

    // Merge outputs into the next full map and update ownership.
    const auto geo = supernet::CostModel::block_geometry(config, b);
    std::vector<Piece> next_pieces;
    std::vector<TileExtent> out_extents;
    next_pieces.reserve(extents.size());
    out_extents.reserve(extents.size());
    for (std::size_t t = 0; t < extents.size(); ++t) {
      const TileExtent oe{extents[t].h0 / geo.stride, extents[t].w0 / geo.stride,
                          extents[t].h / geo.stride, extents[t].w / geo.stride};
      out_extents.push_back(oe);
      next_pieces.push_back(
          Piece{oe, plan.device[static_cast<std::size_t>(b)][tiled ? t : 0]});
    }
    current = merge_tiles(outputs, out_extents, outputs.front().dim(1),
                          current.dim(2) / geo.stride,
                          current.dim(3) / geo.stride);
    pieces = std::move(next_pieces);
    prev_quant = bc.quant;

    // Advance the request's simulated clock past this block (first-order:
    // slowest tile, straggler-adjusted) so later blocks see faults whose
    // windows open mid-request.
    if (inj) {
      double block_ms = 0.0;
      for (std::size_t t = 0; t < extents.size(); ++t) {
        const auto dev = static_cast<std::size_t>(
            plan.device[static_cast<std::size_t>(b)][tiled ? t : 0]);
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
  {
    if (inj) redispatch(plan.head_device, 0);
    const int head_dev = plan.head_device;
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      if (pieces[p].device == head_dev) continue;
      const auto& se = pieces[p].extent;
      Tensor crop = current.crop(se.h0, se.w0, se.h, se.w);
      const QuantizedTensor qt = quantize(crop, prev_quant);
      const double arrival = transport_.send(
          pieces[p].device, head_dev, make_tag(1000, 0, static_cast<int>(p)),
          encode_activation(qt), qt.wire_bytes(), inj ? sim_now : 0.0);
      std::optional<QuantizedTensor> back;
      if (inj) {
        const auto msg =
            transport_.recv_for(head_dev, make_tag(1000, 0, static_cast<int>(p)),
                                arrival + failover_.recv_slack_ms);
        if (msg) back = decode_activation(msg->payload);
        if (!back) {
          // Piece lost on the way to the head: the fp32 region already in
          // `current` serves (skipping the wire's quantization error);
          // charge the wait plus a re-fetch.
          ++report.local_fallbacks;
          fo_penalty_ms += arrival - sim_now + failover_.recv_slack_ms;
          blame(pieces[p].device, head_dev);
          obs::add("runtime.failover.local_fallback");
          continue;
        }
      } else {
        const auto msg =
            transport_.recv(head_dev, make_tag(1000, 0, static_cast<int>(p)));
        back = decode_activation(msg.payload);
        assert(back.has_value());
      }
      paste_overlap(dequantize(*back), se, current,
                    TileExtent{0, 0, current.dim(2), current.dim(3)});
    }
    report.logits = supernet_.forward_head(current);
    if (head_dev != 0) {
      const QuantizedTensor qt = quantize(report.logits, QuantBits::k32);
      const double arrival = transport_.send(
          head_dev, 0, make_tag(1001, 0, 0), encode_activation(qt),
          qt.wire_bytes(), inj ? sim_now : 0.0);
      if (inj) {
        const auto msg = transport_.recv_for(0, make_tag(1001, 0, 0),
                                             arrival + failover_.recv_slack_ms);
        std::optional<QuantizedTensor> got;
        if (msg) got = decode_activation(msg->payload);
        if (got) {
          report.logits = dequantize(*got);
        } else {
          // Logits lost on the return hop; the locally computed copy is
          // identical (k32 wire), so serve it and charge the wait.
          ++report.local_fallbacks;
          fo_penalty_ms += arrival - sim_now + failover_.recv_slack_ms;
          blame(head_dev, 0);
          obs::add("runtime.failover.local_fallback");
        }
      } else {
        const auto msg = transport_.recv(0, make_tag(1001, 0, 0));
        report.logits = dequantize(*decode_activation(msg.payload));
      }
    }
  }

  // Simulated latency from the analytic evaluator (identical cost model),
  // evaluated on the *effective* plan (post-redispatch) plus the honest
  // failover surcharge: burned waits, re-dispatch detection, retry backoff.
  const partition::SubnetLatencyEvaluator eval(network_);
  report.transport = transport_.stats();
  report.local_fallbacks += fo_fallbacks;
  report.failover_penalty_ms = fo_penalty_ms + report.transport.backoff_ms;
  report.sim_latency_ms =
      eval.evaluate(config, plan, nullptr,
                    obs::enabled() ? &report.attrib : nullptr)
          .total_ms +
      report.failover_penalty_ms;
  report.sim_occupancy_ms = report.sim_latency_ms;
  report.degraded = report.redispatched_tiles > 0 ||
                    report.local_fallbacks > 0 ||
                    report.transport.drops > 0 ||
                    report.transport.timeouts > 0;
  if (obs::enabled()) {
    obs::add("exec.runs");
    obs::add("exec.partitioned_blocks",
             static_cast<std::uint64_t>(report.partitioned_blocks));
    obs::gauge_set("kernel.workspace_bytes",
                   static_cast<double>(Workspace::tls().capacity_bytes()));
  }
  report.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t_start)
          .count();
  return report;
}

BatchExecutionReport DistributedExecutor::run_batch(
    const std::vector<Tensor>& images, const SubnetConfig& config,
    const partition::PlacementPlan& plan, const std::vector<double>& sim_start_ms) {
  if (sim_start_ms.size() != images.size())
    throw std::invalid_argument(
        "run_batch: sim_start_ms has " + std::to_string(sim_start_ms.size()) +
        " entries for " + std::to_string(images.size()) + " images");
  BatchExecutionReport out;
  if (images.empty()) return out;
  const auto t_start = std::chrono::steady_clock::now();

  // Failover is a per-request protocol (per-request sim anchors, per-device
  // blame), so under fault injection the batch decomposes to serial runs.
  // Single-member batches take the serial path too: it is the same work.
  if (failover_.injector != nullptr || images.size() == 1) {
    out.reports.reserve(images.size());
    for (std::size_t i = 0; i < images.size(); ++i)
      out.reports.push_back(run(images[i], config, plan, sim_start_ms[i]));
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t_start)
                      .count();
    return out;
  }

  MURMUR_SPAN("exec.batch", "exec",
              obs::maybe_histogram("stage.exec_batch_ms"));
  transport_.reset_stats();
  supernet_.activate(config);
  const int n = static_cast<int>(images.size());
  // Disjoint tag namespace per batch: the per-destination mailboxes act as
  // double-buffered queues — a new batch's scatter can stage while the
  // previous batch's receives drain, with no tag aliasing between them.
  const std::uint64_t epoch =
      (batch_epoch_.fetch_add(1, std::memory_order_relaxed) & 0x7fffull) << 48;
  const auto btag = [epoch](int block, int tile, int piece) {
    return epoch | make_tag(block, tile, piece);
  };
  // Per-sample quantize + one ACTB envelope: each member's wire content is
  // identical to what its serial run would have shipped (per-tensor scales
  // are computed per sample, never across the batch).
  const auto send_batch = [&](const Tensor& region, QuantBits bits, int src,
                              int dst, std::uint64_t tag) {
    std::vector<QuantizedTensor> qts;
    qts.reserve(static_cast<std::size_t>(n));
    std::size_t wire = 0;
    for (int i = 0; i < n; ++i) {
      qts.push_back(quantize(slice_members(region, i, i + 1), bits));
      wire += qts.back().wire_bytes();
    }
    transport_.send(src, dst, tag, encode_activation_batch(qts), wire, 0.0);
  };
  const auto recv_batch = [&](int dst, std::uint64_t tag) {
    const auto msg = transport_.recv(dst, tag);
    const auto qts = decode_activation_batch(msg.payload);
    assert(qts.has_value());
    std::vector<Tensor> deq;
    deq.reserve(qts->size());
    for (const auto& qt : *qts) deq.push_back(dequantize(qt));
    return concat_members(deq);
  };
  const auto stem = [&](const Tensor& x) { return supernet_.forward_stem(x); };

  int partitioned_blocks = 0;

  // --- Stem (device 0 holds the images) --------------------------------
  Tensor current;
  {
    const int stem_dev = plan.stem_device;
    if (stem_dev != 0) {
      send_batch(concat_members(images), QuantBits::k32, 0, stem_dev,
                 btag(-1, 0, 0));
      current = forward_members(recv_batch(stem_dev, btag(-1, 0, 0)), stem);
    } else {
      current = forward_members(concat_members(images), stem);
    }
  }
  std::vector<std::pair<TileExtent, int>> pieces{
      {TileExtent{0, 0, current.dim(2), current.dim(3)}, plan.stem_device}};
  QuantBits prev_quant = QuantBits::k32;  // stem output is fp32

  // --- Blocks -----------------------------------------------------------
  for (int b = 0; b < supernet::kMaxBlocks; ++b) {
    if (!config.block_active(b)) continue;
    const auto& bc = config.blocks[static_cast<std::size_t>(b)];
    supernet_.prepare_block(b);

    const bool tiled = supernet_.block_can_partition(b, current);
    const auto extents =
        tiled ? tile_extents(current.dim(2), current.dim(3), bc.grid)
              : std::vector<TileExtent>{
                    TileExtent{0, 0, current.dim(2), current.dim(3)}};
    if (tiled) ++partitioned_blocks;

    // Tile assembly/compute is dispatched FIRST so the scatter below
    // overlaps it: workers assemble local pieces and block in recv for
    // remote ones while this thread is still quantizing and sending.
    std::vector<Tensor> outputs(extents.size());
    std::vector<std::future<void>> tile_futs;
    tile_futs.reserve(extents.size());
    for (std::size_t t = 0; t < extents.size(); ++t) {
      tile_futs.push_back(pool_.submit([&, t] {
        MURMUR_SPAN("exec.tile", "exec", obs::maybe_histogram("stage.tile_ms"));
        const int dev = plan.device[static_cast<std::size_t>(b)][tiled ? t : 0];
        const auto& de = extents[t];
        Tensor input({current.dim(0), current.dim(1), de.h, de.w});
        for (std::size_t p = 0; p < pieces.size(); ++p) {
          const auto& se = pieces[p].first;
          if (!overlaps(de, se)) continue;
          if (pieces[p].second == dev) {
            paste_overlap(current, se, input, de);
            continue;
          }
          const Tensor got = recv_batch(
              dev, btag(b, static_cast<int>(t), static_cast<int>(p)));
          const TileExtent ge{std::max(se.h0, de.h0), std::max(se.w0, de.w0),
                              got.dim(2), got.dim(3)};
          paste_overlap(got, ge, input, de);
        }
        outputs[t] = forward_members(input, [&](const Tensor& x) {
          return supernet_.forward_block_tile(b, x);
        });
      }));
    }

    // Scatter (this thread): ship every cross-device overlap.
    for (std::size_t t = 0; t < extents.size(); ++t) {
      const int dev = plan.device[static_cast<std::size_t>(b)][tiled ? t : 0];
      for (std::size_t p = 0; p < pieces.size(); ++p) {
        const auto& se = pieces[p].first;
        if (pieces[p].second == dev || !overlaps(extents[t], se)) continue;
        const auto& de = extents[t];
        const int h0 = std::max(se.h0, de.h0);
        const int h1 = std::min(se.h0 + se.h, de.h0 + de.h);
        const int w0 = std::max(se.w0, de.w0);
        const int w1 = std::min(se.w0 + se.w, de.w0 + de.w);
        send_batch(current.crop(h0, w0, h1 - h0, w1 - w0), prev_quant,
                   pieces[p].second, dev,
                   btag(b, static_cast<int>(t), static_cast<int>(p)));
      }
    }
    for (auto& f : tile_futs) f.get();

    const auto geo = supernet::CostModel::block_geometry(config, b);
    std::vector<std::pair<TileExtent, int>> next_pieces;
    std::vector<TileExtent> out_extents;
    next_pieces.reserve(extents.size());
    out_extents.reserve(extents.size());
    for (std::size_t t = 0; t < extents.size(); ++t) {
      const TileExtent oe{extents[t].h0 / geo.stride, extents[t].w0 / geo.stride,
                          extents[t].h / geo.stride, extents[t].w / geo.stride};
      out_extents.push_back(oe);
      next_pieces.emplace_back(
          oe, plan.device[static_cast<std::size_t>(b)][tiled ? t : 0]);
    }
    current = merge_tiles(outputs, out_extents, outputs.front().dim(1),
                          current.dim(2) / geo.stride,
                          current.dim(3) / geo.stride);
    pieces = std::move(next_pieces);
    prev_quant = bc.quant;
  }

  // --- Head: gather to the head device, classify, return logits. -------
  Tensor logits;
  {
    const int head_dev = plan.head_device;
    for (std::size_t p = 0; p < pieces.size(); ++p) {
      if (pieces[p].second == head_dev) continue;
      const auto& se = pieces[p].first;
      send_batch(current.crop(se.h0, se.w0, se.h, se.w), prev_quant,
                 pieces[p].second, head_dev,
                 btag(1000, 0, static_cast<int>(p)));
      paste_overlap(recv_batch(head_dev, btag(1000, 0, static_cast<int>(p))),
                    se, current,
                    TileExtent{0, 0, current.dim(2), current.dim(3)});
    }
    logits = forward_members(
        current, [&](const Tensor& x) { return supernet_.forward_head(x); });
    if (head_dev != 0) {
      send_batch(logits, QuantBits::k32, head_dev, 0, btag(1001, 0, 0));
      logits = recv_batch(0, btag(1001, 0, 0));
    }
  }

  // Per-member accounting: simulated latency comes from the same analytic
  // evaluator as the serial path (it depends only on the strategy, so the
  // batch changes nothing); transport stats are batch-level aggregates and
  // wall time is split evenly — batching is a wall-clock optimization, the
  // simulated-time model is untouched.
  const partition::SubnetLatencyEvaluator eval(network_);
  const TransportStats tstats = transport_.stats();
  // Every fused member's sim latency is its standalone (batch == 1)
  // evaluation, so all members share one attribution breakdown too.
  partition::PhaseBreakdown batch_attrib;
  const double sim_lat =
      eval.evaluate(config, plan, nullptr,
                    obs::enabled() ? &batch_attrib : nullptr)
          .total_ms;
  // Occupancy: the fused pass keeps the executor busy for the batch's
  // evaluated latency (bytes and compute scale with n, per-message delays
  // are amortized); each member owns an equal share of it.
  const double sim_occ = eval.batch_latency_ms(config, plan, n) / n;
  out.batched = true;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t_start)
                    .count();
  out.reports.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ExecutionReport r;
    r.logits = slice_members(logits, i, i + 1);
    r.sim_latency_ms = sim_lat;
    r.sim_occupancy_ms = sim_occ;
    r.wall_ms = out.wall_ms / n;
    r.transport = tstats;
    r.partitioned_blocks = partitioned_blocks;
    r.attrib = batch_attrib;
    out.reports.push_back(std::move(r));
  }
  if (obs::enabled()) {
    obs::add("exec.runs", static_cast<std::uint64_t>(n));
    obs::add("exec.batch.runs");
    obs::add("exec.batch.requests", static_cast<std::uint64_t>(n));
    obs::add("exec.partitioned_blocks",
             static_cast<std::uint64_t>(partitioned_blocks));
    obs::gauge_set("kernel.workspace_bytes",
                   static_cast<double>(Workspace::tls().capacity_bytes()));
  }
  return out;
}

}  // namespace murmur::runtime
