// Minimal leveled logger. Benchmarks and examples default to Info; tests set
// Warn to keep ctest output readable. Thread-safe (one mutex per process).
//
// The MURMUR_LOG_LEVEL environment variable (debug|info|warn|error|off, or
// 0-4) overrides the level at startup AND takes precedence over later
// set_log_level() calls — binaries hard-code sensible defaults, the env var
// is the user's explicit escape hatch.
//
// Each line is prefixed with a monotonic millisecond timestamp and a dense
// thread id ([    12.345] [t01] [INFO ] ...). Both share their epoch / id
// scheme with the obs span tracer, so log lines correlate with trace spans.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace murmur {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// No-op when MURMUR_LOG_LEVEL is set (the env var wins).
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Emit one line at `level` (no-op if below the global threshold).
void log_line(LogLevel level, const std::string& msg);

/// Monotonic milliseconds since process start. Shared epoch for log-line
/// timestamps and trace-span timestamps (obs/trace.h).
double monotonic_ms() noexcept;

/// Small dense id of the calling thread (1, 2, ...), stable for the
/// thread's lifetime. Used by log prefixes and trace events alike.
std::uint32_t current_thread_id() noexcept;

/// Register a human-readable name for the calling thread (worker pools name
/// their workers, the replica pool its router and workers). Read back by the
/// trace exporter as Chrome `thread_name` metadata so exported traces show
/// "device-pool/w2" instead of an anonymous tid.
void set_thread_name(const std::string& name);
/// Name registered for `tid`, or "" if the thread never named itself.
std::string thread_name(std::uint32_t tid);
/// Every (tid, name) pair registered so far, tid-ascending.
std::vector<std::pair<std::uint32_t, std::string>> thread_names();

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace murmur

#define MURMUR_LOG_DEBUG ::murmur::detail::LogStream(::murmur::LogLevel::kDebug)
#define MURMUR_LOG_INFO ::murmur::detail::LogStream(::murmur::LogLevel::kInfo)
#define MURMUR_LOG_WARN ::murmur::detail::LogStream(::murmur::LogLevel::kWarn)
#define MURMUR_LOG_ERROR ::murmur::detail::LogStream(::murmur::LogLevel::kError)
