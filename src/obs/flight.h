// Flight recorder: a lock-light, fixed-size ring of recent request records
// (DESIGN.md §5.11).
//
// Every request the serving layer resolves — completed, degraded, shed or
// failed — deposits one POD FlightRecord. The ring holds the most recent
// `capacity` records (default 4096); older ones are overwritten. Writers
// take one of 16 sharded mutexes (shard = slot % 16), so concurrent
// serving workers almost never contend and the hot path stays a
// fetch_add + small struct copy. A seqlock would be cheaper still, but its
// benign payload races are indistinguishable from real ones under TSan,
// and the attribution tests run in the TSan pass — sharded locks keep the
// recorder provably race-free.
//
// Exports:
//   * write_jsonl    — one JSON object per record, oldest first.
//   * write_chrome   — chrome://tracing / Perfetto trace on the SIM clock
//     (1 sim-ms = 1000 trace-us): pid 1 is the serving/admission plane,
//     pid 100+d is simulated device d. Each record emits its queue span,
//     per-device execution spans, and `s`/`f` flow events keyed on the
//     request seq so the UI draws causal arrows from admission to every
//     device the request touched.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/attrib.h"

namespace murmur::obs {

/// Serving-level outcome mirror (obs cannot depend on runtime).
enum class FlightOutcome : std::uint8_t {
  kCompleted = 0,
  kDegraded = 1,
  kShed = 2,
  kFailed = 3,
};

const char* to_string(FlightOutcome o) noexcept;

/// One request's flight record. POD, fixed size; stored by value in the
/// ring. Phase arrays are float — 1e-6-ms-exact sums live in the metrics
/// layer, the recorder is for inspection.
struct FlightRecord {
  std::uint64_t seq = 0;           // serving admission sequence number
  std::uint64_t strategy_key = 0;  // coalescing fingerprint (0 if shed)
  std::uint64_t device_mask = 0;   // bit d: device d participated
  /// Bit d: device d's breaker was not closed at finish, on the device
  /// board of the replica system that served the request (0 if none did).
  std::uint64_t breaker_open_mask = 0;
  double sim_arrival_ms = 0.0;
  double sim_start_ms = 0.0;    // arrival + queue wait
  double sim_latency_ms = 0.0;  // observed (queue + execution), 0 if shed
  float sim_phase_ms[kPhaseCount] = {};
  float wall_phase_ms[kPhaseCount] = {};
  /// Up to kMaxDeviceSlices per-device slices; device < 0 marks unused.
  static constexpr int kMaxDeviceSlices = 8;
  struct DevicePhase {
    std::int16_t device = -1;
    float send_ms = 0.0f;
    float recv_ms = 0.0f;
    float compute_ms = 0.0f;
  };
  DevicePhase dev[kMaxDeviceSlices] = {};
  /// Planning constraint (normalized tightness coords, see rl/env.h) and
  /// the concrete SLO value the decision planned against. Zero dims means
  /// "not recorded" (shed requests, pre-adaptation records). The online
  /// adapter's guardrail shadow-replays recent records from these.
  static constexpr int kMaxConstraintDims = 12;
  float constraint[kMaxConstraintDims] = {};
  std::uint8_t constraint_dims = 0;
  float slo_value = 0.0f;
  FlightOutcome outcome = FlightOutcome::kCompleted;
  /// Serving replica that executed the request: 0 for single-system
  /// serving (a pool of one); -1 for shed requests, which never reach a
  /// replica.
  std::int16_t replica = -1;
  std::int16_t rung = 0;
  bool cache_hit = false;
  bool slo_met = false;
  bool batched = false;
  char shed_reason[20] = {};  // "" unless outcome == kShed

  void set_shed_reason(const char* reason) noexcept;
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Deposit one record (no-op while obs::enabled() is false). The
  /// record's slot is chosen by a relaxed fetch_add, so concurrent writers
  /// never block each other unless they hash to the same shard.
  void record(const FlightRecord& r);

  /// Resize the ring and drop all records (tests shrink it to exercise
  /// wraparound; murmurctl grows it for long overload runs).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;
  /// Total records ever deposited (monotonic; >= capacity means the ring
  /// has wrapped).
  std::uint64_t total() const noexcept;

  /// Stable copy of the current ring contents, oldest first.
  std::vector<FlightRecord> snapshot() const;

  /// One JSON object per record, oldest first. Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;
  /// Chrome trace (JSON array form) on the sim clock; see file header.
  bool write_chrome(const std::string& path) const;

  /// Drop all records (capacity unchanged).
  void reset();

 private:
  FlightRecorder();

  static constexpr std::size_t kShards = 16;

  mutable std::array<std::mutex, kShards> shard_mutexes_;
  /// Reader-writer guard for ring_ REALLOCATION only: record/snapshot take
  /// it shared (uncontended among themselves), set_capacity exclusive.
  mutable std::shared_mutex resize_mutex_;
  std::vector<FlightRecord> ring_;
  std::atomic<std::uint64_t> next_{0};  // total records ever written
};

/// Serialize one record as a single-line JSON object (shared by the JSONL
/// export and tests).
std::string to_json(const FlightRecord& r);

}  // namespace murmur::obs
