#include "common/serialize.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace murmur {

namespace {
template <typename T>
void append_raw(std::vector<std::uint8_t>& buf, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}
}  // namespace

void ByteWriter::write_u32(std::uint32_t v) { append_raw(buf_, v); }
void ByteWriter::write_u64(std::uint64_t v) { append_raw(buf_, v); }
void ByteWriter::write_f32(float v) { append_raw(buf_, v); }
void ByteWriter::write_f64(double v) { append_raw(buf_, v); }

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::write_f32_span(std::span<const float> xs) {
  write_u64(xs.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(xs.data());
  buf_.insert(buf_.end(), p, p + xs.size_bytes());
}

void ByteWriter::write_f64_span(std::span<const double> xs) {
  write_u64(xs.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(xs.data());
  buf_.insert(buf_.end(), p, p + xs.size_bytes());
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_u64(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::uint8_t* ByteWriter::append(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void ByteWriter::patch_u64(std::size_t at, std::uint64_t v) {
  std::memcpy(buf_.data() + at, &v, sizeof v);
}

bool ByteReader::take(void* out, std::size_t n) noexcept {
  if (!ok_ || pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::read_u32(std::uint32_t& v) noexcept { return take(&v, 4); }
bool ByteReader::read_u64(std::uint64_t& v) noexcept { return take(&v, 8); }
bool ByteReader::read_i32(std::int32_t& v) noexcept { return take(&v, 4); }
bool ByteReader::read_f32(float& v) noexcept { return take(&v, 4); }
bool ByteReader::read_f64(double& v) noexcept { return take(&v, 8); }

bool ByteReader::read_string(std::string& s) {
  std::uint32_t n = 0;
  if (!read_u32(n)) return false;
  if (pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  s.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return true;
}

bool ByteReader::read_f32_vec(std::vector<float>& xs) {
  std::uint64_t n = 0;
  if (!read_u64(n)) return false;
  if (pos_ + n * sizeof(float) > data_.size()) {
    ok_ = false;
    return false;
  }
  xs.resize(n);
  return take(xs.data(), n * sizeof(float));
}

bool ByteReader::read_f64_vec(std::vector<double>& xs) {
  std::uint64_t n = 0;
  if (!read_u64(n)) return false;
  if (pos_ + n * sizeof(double) > data_.size()) {
    ok_ = false;
    return false;
  }
  xs.resize(n);
  return take(xs.data(), n * sizeof(double));
}

bool ByteReader::read_bytes(std::vector<std::uint8_t>& bytes) {
  std::uint64_t n = 0;
  if (!read_u64(n)) return false;
  if (pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  bytes.resize(n);
  return take(bytes.data(), n);
}

namespace {
constexpr std::uint32_t kCheckedFileMagic = 0x4d434b46u;  // "MCKF"
}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

std::vector<std::uint8_t> encode_checked(std::span<const std::uint8_t> payload,
                                         std::uint32_t version) {
  ByteWriter w;
  w.write_u32(kCheckedFileMagic);
  w.write_u32(version);
  w.write_u64(payload.size());
  w.write_bytes(payload);
  w.write_u64(fnv1a64(w.data()));
  return w.take();
}

std::optional<std::vector<std::uint8_t>> decode_checked(
    std::span<const std::uint8_t> frame, std::uint32_t version) {
  // Trailer: the checksum covers everything before its own 8 bytes.
  if (frame.size() < sizeof(std::uint64_t)) return std::nullopt;
  const std::size_t body = frame.size() - sizeof(std::uint64_t);
  ByteReader trailer{frame.subspan(body)};
  std::uint64_t stored_sum = 0;
  if (!trailer.read_u64(stored_sum) || stored_sum != fnv1a64(frame.first(body)))
    return std::nullopt;

  ByteReader r{frame.first(body)};
  std::uint32_t magic = 0, ver = 0;
  std::uint64_t declared = 0;
  if (!r.read_u32(magic) || magic != kCheckedFileMagic) return std::nullopt;
  if (!r.read_u32(ver) || ver != version) return std::nullopt;
  if (!r.read_u64(declared)) return std::nullopt;
  std::vector<std::uint8_t> payload;
  if (!r.read_bytes(payload) || payload.size() != declared) return std::nullopt;
  if (r.remaining() != 0) return std::nullopt;  // trailing junk inside frame
  return payload;
}

bool save_checked_file(const std::string& path,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t version) {
  const std::vector<std::uint8_t> frame = encode_checked(payload, version);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
    if (!f.good()) {
      f.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> load_checked_file(
    const std::string& path, std::uint32_t version) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  return decode_checked(bytes, version);
}

}  // namespace murmur
