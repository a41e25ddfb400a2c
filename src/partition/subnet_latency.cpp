#include "partition/subnet_latency.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "supernet/cost_model.h"

namespace murmur::partition {

using supernet::CostModel;
using supernet::SubnetConfig;

double overlap_fraction(const TileExtent& a, const TileExtent& b) noexcept {
  const int h = std::max(0, std::min(a.h0 + a.h, b.h0 + b.h) -
                                std::max(a.h0, b.h0));
  const int w = std::max(0, std::min(a.w0 + a.w, b.w0 + b.w) -
                                std::max(a.w0, b.w0));
  const double area = static_cast<double>(a.h) * a.w;
  return area > 0 ? (static_cast<double>(h) * w) / area : 0.0;
}

LatencyBreakdown SubnetLatencyEvaluator::evaluate_batch(
    const SubnetConfig& config, const PlacementPlan& plan, int batch,
    Timeline* timeline, PhaseBreakdown* phases) const {
  LatencyBreakdown out;
  // Fused-batch scaling: payload bytes and device busy time grow with the
  // batch; message count, path delays, and the event structure do not.
  // bn == 1.0 reproduces the single-request playout bit for bit.
  const double bn = static_cast<double>(std::max(1, batch));
  const std::size_t n_dev = network_.num_devices();
  std::vector<double> device_free(n_dev, 0.0);

  // Current data layout: a set of tiles (extent on the current lattice,
  // owning device, ready time, wire bytes of the full current map).
  struct Piece {
    TileExtent extent;
    int device = 0;
    double ready = 0.0;
  };
  std::vector<Piece> pieces;

  // Attribution rides alongside the scalar playout when `phases` is set: a
  // component vector (send/recv/compute/gather summing to its time point)
  // is carried through exactly the same max() chains that produce the
  // scalar times — each comparison below picks the vector of whichever
  // scalar argument std::max picks (first argument on ties), so the
  // decomposition always describes the actual critical path and the
  // scalar arithmetic stays byte-identical whether or not phases is null.
  struct Vec {
    double send = 0.0, recv = 0.0, compute = 0.0, gather = 0.0;
  };
  std::vector<Vec> device_free_vec, piece_vecs;
  if (phases) {
    device_free_vec.assign(n_dev, Vec{});
    phases->device_send_ms.assign(n_dev, 0.0);
    phases->device_recv_ms.assign(n_dev, 0.0);
    phases->device_compute_ms.assign(n_dev, 0.0);
  }

  // Labels are only materialized for an attached timeline: the decision
  // path evaluates thousands of strategies without one.
  auto charge_transfer = [&](int src, int dst, double bytes, double start,
                             std::string_view label) {
    if (src == dst || bytes <= 0.0) return 0.0;
    const double t = network_.transfer_ms(static_cast<std::size_t>(src),
                                          static_cast<std::size_t>(dst), bytes);
    out.comm_ms += t;
    ++out.messages;
    out.bytes_moved += static_cast<std::size_t>(bytes);
    if (timeline)
      timeline->add_transfer(src, dst, start, start + t, std::string(label));
    return t;
  };

  // Split an already-charged transfer into its serialization (bandwidth)
  // and propagation (path-delay) legs: serialization = t - delay, so the
  // two legs sum back to t exactly. Charges the per-device slices: the
  // sender serializes, the receiver waits out the propagation.
  auto split_transfer = [&](int src, int dst, double t) {
    std::pair<double, double> legs{0.0, 0.0};  // {send, recv}
    if (src == dst || t <= 0.0) return legs;
    const double delay = network_.path_delay_ms(static_cast<std::size_t>(src),
                                                static_cast<std::size_t>(dst));
    legs.first = t - delay;
    legs.second = delay;
    phases->device_send_ms[static_cast<std::size_t>(src)] += legs.first;
    phases->device_recv_ms[static_cast<std::size_t>(dst)] += legs.second;
    return legs;
  };

  // --- Stem: image lives on device 0. --------------------------------
  const int stem_dev = plan.stem_device;
  double t0 = charge_transfer(
      0, stem_dev, static_cast<double>(CostModel::input_bytes(config)) * bn,
      0.0, "input");
  const double stem_compute =
      network_.device(static_cast<std::size_t>(stem_dev))
          .throughput.compute_ms(CostModel::stem_flops(config)) *
      bn;
  out.compute_ms += stem_compute;
  const double stem_start =
      std::max(t0, device_free[static_cast<std::size_t>(stem_dev)]);
  const double stem_ready = stem_start + stem_compute;
  if (timeline)
    timeline->add_compute(stem_dev, stem_start, stem_ready, "stem");
  if (phases) {
    Vec v;  // device_free is all-zero here, so t0 is the start unless tied
    const auto legs = split_transfer(0, stem_dev, t0);
    if (!(t0 < device_free[static_cast<std::size_t>(stem_dev)])) {
      v.send = legs.first;
      v.recv = legs.second;
    }
    v.compute += stem_compute;
    phases->device_compute_ms[static_cast<std::size_t>(stem_dev)] +=
        stem_compute;
    device_free_vec[static_cast<std::size_t>(stem_dev)] = v;
    piece_vecs.push_back(v);
  }
  device_free[static_cast<std::size_t>(stem_dev)] = stem_ready;
  const int stem_spatial = config.resolution / 2;
  pieces.push_back(Piece{TileExtent{0, 0, stem_spatial, stem_spatial},
                         stem_dev, stem_ready});
  // Stem output travels as fp32 (quantization applies to block outputs).
  double current_wire_bytes =
      static_cast<double>(CostModel::stem_out_elements(config)) * 4.0;

  // --- Blocks ----------------------------------------------------------
  for (int b = 0; b < supernet::kMaxBlocks; ++b) {
    if (!config.block_active(b)) continue;
    const auto& bc = config.blocks[static_cast<std::size_t>(b)];
    const auto geo = CostModel::block_geometry(config, b);
    const auto in_extents =
        tile_extents(geo.in_spatial, geo.in_spatial, bc.grid);
    // Effective fp32 FLOPs: int8-quantized blocks execute their conv
    // stages at the calibrated int8 per-MAC rate (CostModel::
    // mac_cost_factor), so cheaper compute shows up in planned latency —
    // and, via the occupancy model, in admission reservations.
    const double tile_flops = CostModel::block_tile_effective_flops(config, b);
    const double full_area =
        static_cast<double>(geo.in_spatial) * geo.in_spatial;

    std::vector<Piece> next;
    next.reserve(in_extents.size());
    std::vector<Vec> next_vecs;
    if (phases) next_vecs.reserve(in_extents.size());
    for (std::size_t t = 0; t < in_extents.size(); ++t) {
      const int dev = plan.device[static_cast<std::size_t>(b)][t];
      const std::string label =
          timeline ? "b" + std::to_string(b) + "/t" + std::to_string(t)
                   : std::string();
      // Gather every overlapping region of the previous layout.
      double arrival = 0.0;
      Vec arrival_vec;
      for (std::size_t pi = 0; pi < pieces.size(); ++pi) {
        const auto& p = pieces[pi];
        const double frac_of_map =
            overlap_fraction(in_extents[t], p.extent) *
            (static_cast<double>(in_extents[t].h) * in_extents[t].w) /
            full_area;
        if (frac_of_map <= 0.0) continue;
        const double bytes = current_wire_bytes * frac_of_map * bn;
        const double xfer =
            charge_transfer(p.device, dev, bytes, p.ready, label);
        if (phases) {
          const auto legs = split_transfer(p.device, dev, xfer);
          if (arrival < p.ready + xfer) {  // the max below picks this arm
            arrival_vec = piece_vecs[pi];
            arrival_vec.send += legs.first;
            arrival_vec.recv += legs.second;
          }
        }
        arrival = std::max(arrival, p.ready + xfer);
        if (p.device != dev)
          out.critical_comm_ms = std::max(out.critical_comm_ms, xfer);
      }
      const double start =
          std::max(arrival, device_free[static_cast<std::size_t>(dev)]);
      const double compute =
          network_.device(static_cast<std::size_t>(dev))
              .throughput.compute_ms(tile_flops) *
          bn;
      out.compute_ms += compute;
      const double finish = start + compute;
      if (timeline) timeline->add_compute(dev, start, finish, label);
      if (phases) {
        Vec v = arrival < device_free[static_cast<std::size_t>(dev)]
                    ? device_free_vec[static_cast<std::size_t>(dev)]
                    : arrival_vec;
        v.compute += compute;
        phases->device_compute_ms[static_cast<std::size_t>(dev)] += compute;
        device_free_vec[static_cast<std::size_t>(dev)] = v;
        next_vecs.push_back(v);
      }
      device_free[static_cast<std::size_t>(dev)] = finish;
      // Output tile extent on the out lattice.
      next.push_back(Piece{TileExtent{in_extents[t].h0 / geo.stride,
                                      in_extents[t].w0 / geo.stride,
                                      std::max(1, in_extents[t].h / geo.stride),
                                      std::max(1, in_extents[t].w / geo.stride)},
                           dev, finish});
    }
    pieces = std::move(next);
    piece_vecs = std::move(next_vecs);
    current_wire_bytes =
        static_cast<double>(CostModel::block_out_wire_bytes(config, b));
  }

  // --- Head: gather the final map, classify, return logits to local. ---
  const int head_dev = plan.head_device;
  double head_input_ready = 0.0;
  Vec head_ready_vec;
  double total_area = 0.0;
  for (const auto& p : pieces) total_area += static_cast<double>(p.extent.h) * p.extent.w;
  for (std::size_t pi = 0; pi < pieces.size(); ++pi) {
    const auto& p = pieces[pi];
    const double frac = (static_cast<double>(p.extent.h) * p.extent.w) /
                        std::max(1.0, total_area);
    const double xfer = charge_transfer(p.device, head_dev,
                                        current_wire_bytes * frac * bn,
                                        p.ready, "gather");
    if (phases) {
      split_transfer(p.device, head_dev, xfer);  // per-device slices only
      if (head_input_ready < p.ready + xfer) {
        head_ready_vec = piece_vecs[pi];
        head_ready_vec.gather += xfer;  // head-side gather, charged whole
      }
    }
    head_input_ready = std::max(head_input_ready, p.ready + xfer);
  }
  const double head_compute =
      network_.device(static_cast<std::size_t>(head_dev))
          .throughput.compute_ms(CostModel::head_flops(config)) *
      bn;
  out.compute_ms += head_compute;
  const double head_start =
      std::max(head_input_ready,
               device_free[static_cast<std::size_t>(head_dev)]);
  double finish = head_start + head_compute;
  if (timeline) timeline->add_compute(head_dev, head_start, finish, "head");
  // Logits back to the local device (1000 fp32 values).
  const double logits_xfer =
      charge_transfer(head_dev, 0, 1000.0 * 4.0 * bn, finish, "logits");
  finish += logits_xfer;
  if (phases) {
    Vec v = head_input_ready < device_free[static_cast<std::size_t>(head_dev)]
                ? device_free_vec[static_cast<std::size_t>(head_dev)]
                : head_ready_vec;
    v.compute += head_compute;
    phases->device_compute_ms[static_cast<std::size_t>(head_dev)] +=
        head_compute;
    split_transfer(head_dev, 0, logits_xfer);  // per-device slices only
    v.gather += logits_xfer;
    phases->send_ms = v.send;
    phases->recv_ms = v.recv;
    phases->compute_ms = v.compute;
    phases->gather_ms = v.gather;
  }
  out.total_ms = finish;
  return out;
}

}  // namespace murmur::partition
