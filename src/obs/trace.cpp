#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.h"

namespace murmur::obs {

namespace {

void copy_str(char* dst, std::size_t cap, const char* src) {
  if (!src) src = "";
  std::strncpy(dst, src, cap - 1);
  dst[cap - 1] = '\0';
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local_buffer() {
  thread_local std::shared_ptr<Buffer> tl_buffer;
  if (!tl_buffer) {
    tl_buffer = std::make_shared<Buffer>();
    std::lock_guard lock(mutex_);
    buffers_.push_back(tl_buffer);
  }
  return *tl_buffer;
}

void Tracer::record(const char* name, const char* cat, double ts_us,
                    double dur_us) {
  Buffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  copy_str(e.name, sizeof(e.name), name);
  copy_str(e.cat, sizeof(e.cat), cat);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = current_thread_id();
  buf.events.push_back(e);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return out;
}

std::size_t Tracer::event_count() const {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  std::size_t n = 0;
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    n += buf->events.size();
  }
  return n;
}

std::string Tracer::to_chrome_json() const {
  const auto evs = events();
  std::string out;
  out.reserve(evs.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  // Metadata first: one process_name, plus a thread_name for every tid
  // that registered one (common/log thread-name registry) — pool workers
  // and the replica router and workers name themselves, so exported traces
  // show "replica/router" instead of an anonymous tid.
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":0,\"args\":{\"name\":\"murmuration\"}}");
  out += buf;
  first = false;
  for (const auto& [tid, name] : thread_names()) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  tid, name.c_str());
    out += buf;
  }
  for (const auto& e : evs) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                  e.name, e.cat, e.ts_us, e.dur_us, e.tid);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = to_chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

void Tracer::clear() {
  std::vector<std::shared_ptr<Buffer>> buffers;
  {
    std::lock_guard lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& buf : buffers) {
    std::lock_guard lock(buf->mutex);
    buf->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat, Histogram* hist) {
  if (!enabled()) return;
  name_ = name;
  cat_ = cat;
  hist_ = hist;
  t0_us_ = monotonic_ms() * 1000.0;
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const double t1_us = monotonic_ms() * 1000.0;
  Tracer::instance().record(name_, cat_, t0_us_, t1_us - t0_us_);
  if (hist_) hist_->observe((t1_us - t0_us_) / 1000.0);
}

}  // namespace murmur::obs
