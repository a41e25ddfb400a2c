// Byte-buffer serialization used by (1) the in-process transport that stands
// in for the paper's gRPC channel and (2) policy-weight checkpoints.
// Little-endian, length-prefixed; no alignment assumptions on the read side.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace murmur {

class ByteWriter {
 public:
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_span(std::span<const float> xs);
  void write_f64_span(std::span<const double> xs);
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Append `n` zero bytes and return them for the caller to fill in place.
  std::uint8_t* append(std::size_t n);
  /// Overwrite the u64 written at byte offset `at` (a length placeholder).
  void patch_u64(std::size_t at, std::uint64_t v);
  void reserve(std::size_t n) { buf_.reserve(n); }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  /// Each read_* returns false (leaving the output untouched) on underflow;
  /// once any read fails the reader is poisoned and all further reads fail.
  bool read_u32(std::uint32_t& v) noexcept;
  bool read_u64(std::uint64_t& v) noexcept;
  bool read_i32(std::int32_t& v) noexcept;
  bool read_f32(float& v) noexcept;
  bool read_f64(double& v) noexcept;
  bool read_string(std::string& s);
  bool read_f32_vec(std::vector<float>& xs);
  bool read_f64_vec(std::vector<double>& xs);
  bool read_bytes(std::vector<std::uint8_t>& bytes);

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  bool take(void* out, std::size_t n) noexcept;
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- checked checkpoint container -----------------------------------------
//
// On-disk framing for checkpoints (policy weights, strategy stores):
//
//   u32 magic "MCKF" | u32 format version | u64 payload length
//   | payload bytes  | u64 FNV-1a checksum over everything before it
//
// `load_checked_file` validates magic, version, declared length against the
// actual file size and the trailing checksum before returning the payload,
// so a truncated or bit-flipped checkpoint rejects cleanly instead of
// feeding garbage into the deserializer (same discipline as the transport's
// decode_activation). `save_checked_file` writes to `<path>.tmp` and
// renames into place, so a crash mid-write never leaves a half-written
// checkpoint under the final name.

/// FNV-1a over a byte span (the checkpoint trailer hash).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept;

/// Frame `payload` as an in-memory checked container (same MCKF layout the
/// file functions use). The online-adaptation snapshot path frames candidate
/// policy weights this way so the swap site can validate the checksum before
/// publication — a corrupt candidate can never be swapped into serving.
std::vector<std::uint8_t> encode_checked(std::span<const std::uint8_t> payload,
                                         std::uint32_t version);

/// Validate an in-memory checked frame (magic, version, declared length,
/// trailing checksum, no trailing junk) and return its payload; nullopt on
/// any mismatch. Every single-bit flip of `frame` must fail.
std::optional<std::vector<std::uint8_t>> decode_checked(
    std::span<const std::uint8_t> frame, std::uint32_t version);

/// Atomically write `payload` framed as a checked checkpoint. Returns false
/// on any I/O failure (the destination is left untouched).
bool save_checked_file(const std::string& path,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t version);

/// Read and validate a checked checkpoint; nullopt if the file is missing,
/// truncated, the wrong magic/version, or fails the checksum.
std::optional<std::vector<std::uint8_t>> load_checked_file(
    const std::string& path, std::uint32_t version);

}  // namespace murmur
