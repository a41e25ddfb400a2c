#include "runtime/transport.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "common/log.h"
#include "common/serialize.h"
#include "obs/trace.h"

namespace murmur::runtime {

namespace {

/// Bytes of the bit-packed codes of a quantized (non-k32) tensor.
std::size_t packed_bytes(const QuantizedTensor& qt) {
  return (qt.q.size() * static_cast<std::size_t>(bit_count(qt.bits)) + 7) / 8;
}

/// Exact size of encode_activation(qt), so a frame can be reserved once.
std::size_t encoded_size(const QuantizedTensor& qt) {
  const std::size_t header = 4 * 4 + 4 * qt.shape.size() + 4;
  if (qt.bits == QuantBits::k32)
    return header + 8 + qt.passthrough.size() * sizeof(float);
  return header + 8 + 8 + packed_bytes(qt);
}

/// Append the ACT1 encoding of `qt` to `w`.
void write_activation(ByteWriter& w, const QuantizedTensor& qt) {
  w.write_u32(0x41435431u);  // "ACT1"
  w.write_u32(static_cast<std::uint32_t>(qt.shape.size()));
  for (int d : qt.shape) w.write_i32(d);
  w.write_u32(static_cast<std::uint32_t>(bit_count(qt.bits)));
  w.write_f32(qt.scale);
  w.write_f32(qt.zero_point);
  if (qt.bits == QuantBits::k32) {
    w.write_f32_span(qt.passthrough);
    return;
  }
  // Bit-pack the codes at the configured width (sign-extended on read),
  // straight into the frame.
  const int bits = bit_count(qt.bits);
  const std::size_t n = packed_bytes(qt);
  w.write_u64(qt.q.size());
  w.write_u64(n);
  std::uint8_t* out = w.append(n);
  std::uint64_t acc = 0;
  int filled = 0;
  const std::uint64_t mask = (1ull << bits) - 1;
  for (std::int32_t v : qt.q) {
    acc |= (static_cast<std::uint64_t>(v) & mask) << filled;
    filled += bits;
    while (filled >= 8) {
      *out++ = static_cast<std::uint8_t>(acc & 0xff);
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) *out = static_cast<std::uint8_t>(acc & 0xff);
}

}  // namespace

std::vector<std::uint8_t> encode_activation(const QuantizedTensor& qt) {
  ByteWriter w;
  w.reserve(encoded_size(qt));
  write_activation(w, qt);
  return w.take();
}

std::optional<QuantizedTensor> decode_activation(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  std::uint32_t magic = 0, rank = 0, bits = 0;
  if (!r.read_u32(magic) || magic != 0x41435431u) return std::nullopt;
  if (!r.read_u32(rank) || rank == 0 || rank > 8) return std::nullopt;
  QuantizedTensor qt;
  qt.shape.resize(rank);
  std::uint64_t elements = 1;
  for (auto& d : qt.shape) {
    if (!r.read_i32(d)) return std::nullopt;
    // Dimensions must be positive and the element count sane: a corrupted
    // header must never drive a multi-gigabyte resize below.
    if (d <= 0) return std::nullopt;
    elements *= static_cast<std::uint64_t>(d);
    if (elements > (1ull << 32)) return std::nullopt;
  }
  if (!r.read_u32(bits)) return std::nullopt;
  if (bits != 4 && bits != 8 && bits != 16 && bits != 32) return std::nullopt;
  qt.bits = static_cast<QuantBits>(bits);
  if (!r.read_f32(qt.scale) || !r.read_f32(qt.zero_point)) return std::nullopt;
  if (qt.bits == QuantBits::k32) {
    if (!r.read_f32_vec(qt.passthrough)) return std::nullopt;
    if (qt.passthrough.size() != elements) return std::nullopt;
    return qt;
  }
  std::uint64_t count = 0;
  if (!r.read_u64(count)) return std::nullopt;
  std::vector<std::uint8_t> packed;
  if (!r.read_bytes(packed)) return std::nullopt;
  const int b = bit_count(qt.bits);
  // The packed payload must actually hold `count` codes, and the code
  // count must match the declared shape.
  if (count != elements) return std::nullopt;
  if (packed.size() < (count * static_cast<std::uint64_t>(b) + 7) / 8)
    return std::nullopt;
  qt.q.resize(count);
  std::uint64_t acc = 0;
  int filled = 0;
  std::size_t byte_idx = 0;
  const std::uint64_t mask = (1ull << b) - 1;
  const std::int64_t sign_bit = 1ll << (b - 1);
  for (auto& v : qt.q) {
    while (filled < b) {
      if (byte_idx >= packed.size()) return std::nullopt;
      acc |= static_cast<std::uint64_t>(packed[byte_idx++]) << filled;
      filled += 8;
    }
    std::int64_t raw = static_cast<std::int64_t>(acc & mask);
    if (raw & sign_bit) raw -= (sign_bit << 1);  // sign extend
    v = static_cast<std::int32_t>(raw);
    acc >>= b;
    filled -= b;
  }
  return qt;
}

std::vector<std::uint8_t> encode_activation_batch(
    std::span<const QuantizedTensor> batch) {
  // One frame, reserved once; each member is encoded straight into it and
  // its length prefix is patched with the bytes actually written, so the
  // prefix never depends on encoded_size (that only sizes the reserve).
  std::size_t total = 8;
  for (const QuantizedTensor& qt : batch) total += 8 + encoded_size(qt);
  ByteWriter w;
  w.reserve(total);
  w.write_u32(0x41435442u);  // "ACTB"
  w.write_u32(static_cast<std::uint32_t>(batch.size()));
  for (const QuantizedTensor& qt : batch) {
    const std::size_t prefix = w.size();
    w.write_u64(0);
    write_activation(w, qt);
    w.patch_u64(prefix, w.size() - prefix - 8);
  }
  return w.take();
}

std::optional<std::vector<QuantizedTensor>> decode_activation_batch(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  std::uint32_t magic = 0, count = 0;
  if (!r.read_u32(magic) || magic != 0x41435442u) return std::nullopt;
  if (!r.read_u32(count) || count == 0 || count > kMaxWireBatch)
    return std::nullopt;
  std::vector<QuantizedTensor> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> member;
    if (!r.read_bytes(member)) return std::nullopt;
    auto qt = decode_activation(member);
    if (!qt) return std::nullopt;
    out.push_back(*std::move(qt));
  }
  if (r.remaining() != 0) return std::nullopt;  // trailing junk
  return out;
}

Transport::Transport(const netsim::Network& network) : network_(network) {
  mailboxes_.reserve(network.num_devices());
  for (std::size_t i = 0; i < network.num_devices(); ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

void Transport::set_fault_injector(netsim::FaultInjector* injector) noexcept {
  injector_ = injector;
}

void Transport::set_message_hook(MessageHook hook) {
  hook_ = std::move(hook);
}

void Transport::set_retry_policy(const RetryPolicy& policy) noexcept {
  retry_ = policy;
}

void Transport::set_wall_budget_ms(double ms) noexcept {
  wall_budget_ms_ = ms > 0.0 ? ms : kDefaultWallBudgetMs;
}

double Transport::send(int src, int dst, std::uint64_t tag,
                       std::vector<std::uint8_t> payload,
                       std::size_t wire_bytes, double sim_send_ms) {
  MURMUR_SPAN("transport.send", "transport",
              obs::maybe_histogram("stage.transport_send_ms"));
  // Fault resolution: loopback never fails; otherwise each attempt may be
  // lost to a hook decision, a blacked-out/crashed endpoint, or sampled
  // packet loss. Lost attempts retry after exponential simulated backoff;
  // exhausting the budget leaves a tombstone so the receiver's deadline
  // wait resolves immediately instead of hanging.
  double t_send = sim_send_ms;
  bool duplicate = false;
  if ((hook_ || injector_) && src != dst) {
    for (int attempt = 1;; ++attempt) {
      bool lost = false;
      if (hook_) {
        switch (hook_(src, dst, tag, attempt)) {
          case MessageFate::kDeliver: break;
          case MessageFate::kDrop: lost = true; break;
          case MessageFate::kDuplicate: duplicate = true; break;
        }
      } else {
        const auto a = static_cast<std::size_t>(src);
        const auto b = static_cast<std::size_t>(dst);
        lost = !injector_->path_up(a, b, t_send) ||
               injector_->drop_message(a, b, t_send);
      }
      if (!lost) break;
      if (attempt >= retry_.max_attempts) {
        {
          std::lock_guard lock(stats_mutex_);
          ++stats_.drops;
        }
        obs::add("transport.drop");
        Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
        {
          std::lock_guard lock(box.mutex);
          box.messages.push_back(Message{src, tag, {}, t_send, true});
        }
        box.cv.notify_all();
        return t_send;
      }
      const double backoff =
          retry_.backoff_ms *
          std::pow(retry_.backoff_factor, static_cast<double>(attempt - 1));
      t_send += backoff;
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.retries;
        stats_.backoff_ms += backoff;
      }
      obs::add("transport.retry");
    }
  }
  double xfer =
      network_.transfer_ms(static_cast<std::size_t>(src),
                           static_cast<std::size_t>(dst),
                           static_cast<double>(wire_bytes));
  if (injector_ && src != dst)
    xfer *= injector_->path_slowdown(static_cast<std::size_t>(src),
                                     static_cast<std::size_t>(dst), t_send);
  const double arrival = t_send + xfer;
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.messages;
    stats_.payload_bytes += payload.size();
    stats_.wire_bytes += wire_bytes;
    stats_.sim_transfer_ms += xfer;
  }
  if (obs::enabled()) {
    obs::add("transport.messages");
    obs::add("transport.wire_bytes", wire_bytes);
    obs::observe("transport.sim_transfer_ms", xfer);
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard lock(box.mutex);
    box.messages.push_back(Message{src, tag, payload, arrival, false});
    if (duplicate)
      box.messages.push_back(Message{src, tag, std::move(payload), arrival,
                                     false});
  }
  box.cv.notify_all();
  return arrival;
}

std::optional<Transport::Message> Transport::recv_for(int dst,
                                                      std::uint64_t tag,
                                                      double sim_deadline_ms,
                                                      double wall_budget_ms) {
  // The recv span's duration is the wall time blocked waiting for the
  // matching message — transport stalls show up directly in the trace.
  MURMUR_SPAN("transport.recv", "transport",
              obs::maybe_histogram("stage.transport_recv_ms"));
  if (wall_budget_ms <= 0.0) wall_budget_ms = wall_budget_ms_;
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  const auto wall_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(wall_budget_ms));
  std::unique_lock lock(box.mutex);
  for (;;) {
    const auto it = std::find_if(
        box.messages.begin(), box.messages.end(),
        [tag](const Message& m) { return m.tag == tag; });
    if (it != box.messages.end()) {
      Message m = std::move(*it);
      box.messages.erase(it);
      // Discard any duplicate deliveries of the same tag.
      for (;;) {
        const auto dup = std::find_if(
            box.messages.begin(), box.messages.end(),
            [tag](const Message& d) { return d.tag == tag; });
        if (dup == box.messages.end()) break;
        box.messages.erase(dup);
        std::lock_guard slock(stats_mutex_);
        ++stats_.duplicates;
      }
      if (m.dropped || m.sim_arrival_ms > sim_deadline_ms) {
        // Lost in flight, or landed after the deadline: the receiver
        // experiences both as a timeout (the late copy is discarded).
        std::lock_guard slock(stats_mutex_);
        ++stats_.timeouts;
        lock.unlock();
        obs::add("transport.timeout");
        return std::nullopt;
      }
      return m;
    }
    if (box.cv.wait_until(lock, wall_deadline) == std::cv_status::timeout) {
      {
        std::lock_guard slock(stats_mutex_);
        ++stats_.timeouts;
      }
      lock.unlock();
      obs::add("transport.timeout");
      return std::nullopt;
    }
  }
}

Transport::Message Transport::recv(int dst, std::uint64_t tag) {
  // Blocking API on top of the bounded one: wait in slices so a wait that
  // exceeds the sanity threshold is loudly reported (the legacy behavior
  // was to hang forever on a message that never arrives).
  const double sanity_ms = std::max(kRecvSanityWallMs, 2.0 * wall_budget_ms_);
  double waited_ms = 0.0;
  bool warned = false;
  for (;;) {
    if (auto m = recv_for(dst, tag, kNoDeadline, sanity_ms)) {
      // A wall-budget expiry above was counted as a timeout; blocking recv
      // keeps waiting, so those slices are not receiver-visible timeouts.
      return *std::move(m);
    }
    {
      std::lock_guard lock(stats_mutex_);
      --stats_.timeouts;
    }
    waited_ms += sanity_ms;
    if (!warned) {
      warned = true;
      MURMUR_LOG_ERROR << "transport.recv blocked > " << waited_ms
                       << " ms waiting for tag " << tag << " at device "
                       << dst << " — sender lost or never sent "
                          "(use recv_for for fault-tolerant receives)";
      assert(!"Transport::recv exceeded the sanity wall-clock threshold");
    }
  }
}

TransportStats Transport::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void Transport::reset_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = TransportStats{};
}

}  // namespace murmur::runtime
