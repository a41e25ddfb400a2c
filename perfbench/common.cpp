// Deployment constants, checkpoint handling, spans, statistics and the host
// context block every result carries.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "tensor/gemm.h"

namespace murmur::perfbench {

core::TrainSetup train_setup() {
  core::TrainSetup setup;
  setup.scenario = netsim::Scenario::kAugmentedComputing;
  setup.slo_type = core::SloType::kLatency;
  setup.algo = core::Algo::kSupreme;
  setup.trainer.total_steps = kTrainSteps;
  setup.trainer.eval_every = kTrainSteps / 12;
  setup.trainer.eval_points = 96;
  setup.trainer.seed = kTrainSeed;
  return setup;
}

std::string checkpoint_path(const std::string& cache_dir) {
  // train_or_load names checkpoints by setup; find the one file it wrote.
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir, ec))
    if (e.path().extension() == ".ckpt") return e.path().string();
  return {};
}

bool load_artifacts(const std::string& cache_dir,
                    core::TrainedArtifacts& out) {
  if (checkpoint_path(cache_dir).empty()) return false;
  out = core::train_or_load(train_setup(), cache_dir);
  return out.policy != nullptr;
}

Tensor center_crop(const Tensor& image, int size) {
  if (image.dim(2) == size && image.dim(3) == size) return image;
  return image.crop((image.dim(2) - size) / 2, (image.dim(3) - size) / 2,
                    size, size);
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- Spans ----------------------------------------------------------------

std::uint64_t SpanLog::next_id() {
  std::lock_guard lock(mutex_);
  return next_++;
}

void SpanLog::record(const Span& s) {
  std::lock_guard lock(mutex_);
  spans_.push_back(s);
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  return out;
}

std::map<std::string, SpanLog::Summary> SpanLog::summarize() const {
  std::lock_guard lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans_)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, Summary> out;
  for (const auto& s : spans_) {
    const double dur = s.end_ms - s.start_ms;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    if (auto it = children.find(s.id); it != children.end())
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start_ms, s.start_ms),
                        std::min(c->end_ms, s.end_ms));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1e300;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_ms += dur;
    sum.self_ms += dur - covered;
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"otherData\": {\"span_summary_ms\": {";
  bool first = true;
  for (const auto& [name, s] : summarize()) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"count\": %llu, \"total\": %.6f, \"self\": %.6f}",
                  first ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ms,
                  s.self_ms);
    f << buf;
    first = false;
  }
  f << "}},\n";
  std::lock_guard lock(mutex_);
  f << "\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %lld}}%s\n",
                  s.name, s.start_ms * 1e3, (s.end_ms - s.start_ms) * 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, std::uint64_t parent,
                       std::int64_t request)
    : log_(log) {
  if (!log_.enabled()) return;
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  span_.id = log_.next_id();
  span_.start_ms = now_ms();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ms = now_ms();
  log_.record(span_);
}

// ---- Host context ---------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// First "key : value" line of /proc/cpuinfo.
std::string cpuinfo_field(const std::string& key) {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

bool has_flag(const std::string& flags, const std::string& flag) {
  std::istringstream ss(flags);
  std::string tok;
  while (ss >> tok)
    if (tok == flag) return true;
  return false;
}

/// FNV-1a 64 of a file's bytes ("" when unreadable).
std::string fnv1a_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return "";
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (f) {
    f.read(buf, sizeof buf);
    for (std::streamsize i = 0; i < f.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
  }
  char out[24];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace

std::string host_context_json(const std::string& cache_dir) {
  const std::string flags = cpuinfo_field("flags");
  const std::string ckpt = checkpoint_path(cache_dir);
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpuinfo_field("model name"))
     << "\", \"avx512_vnni\": "
     << (has_flag(flags, "avx512_vnni") ? "true" : "false")
     << ", \"avx512_vbmi\": "
     << (has_flag(flags, "avx512_vbmi") ? "true" : "false")
     << ", \"compiler\": \"" << MURMUR_PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << MURMUR_PERFBENCH_BUILD_TYPE
     << "\", \"kernel_threads\": " << gemm_kernel_threads()
     << ", \"train_steps\": " << kTrainSteps << ", \"checkpoint\": \""
     << json_escape(std::filesystem::path(ckpt).filename().string())
     << "\", \"checkpoint_fnv1a\": \"" << fnv1a_file(ckpt) << "\"}";
  return os.str();
}

}  // namespace murmur::perfbench
