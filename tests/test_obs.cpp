// Telemetry subsystem tests: histogram percentile correctness on known
// distributions, counter/histogram atomicity under ThreadPool contention,
// Chrome-trace JSON well-formedness (parsed back with a real JSON parser),
// a MurmurationSystem smoke test asserting every infer() produces the
// expected span set, and a kernel span for every op of an MBConv block.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "common/thread_pool.h"
#include "core/training.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/system.h"
#include "supernet/supernet.h"

namespace murmur::obs {
namespace {

// ------------------------------------------------------- tiny JSON parser ----
// Just enough JSON to genuinely parse the exporters' output back (objects,
// arrays, strings, numbers, booleans, null). Throws std::runtime_error on
// malformed input, so well-formedness failures surface as test failures.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  const JsonObject& obj() const { return std::get<JsonObject>(v); }
  const JsonArray& arr() const { return std::get<JsonArray>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
  double num() const { return std::get<double>(v); }
  const JsonValue& at(const std::string& key) const { return obj().at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error(std::string("json error at ") +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': literal("true"); return JsonValue{true};
      case 'f': literal("false"); return JsonValue{false};
      case 'n': literal("null"); return JsonValue{nullptr};
      default: return number();
    }
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p; ++p) expect(*p);
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            out += '?';  // codepoint content irrelevant for these tests
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    return JsonValue{std::stod(s_.substr(start, pos_ - start))};
  }

  JsonValue object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{out};
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{out};
    }
  }

  JsonValue array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{out};
    }
    for (;;) {
      out.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{out};
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Global telemetry state is process-wide; every test starts from a clean,
// enabled slate and leaves the switch off.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    MetricsRegistry::instance().reset();
    Tracer::instance().clear();
  }
  void TearDown() override { set_enabled(false); }
};

// ------------------------------------------------------------ histograms ----

TEST_F(ObsTest, HistogramEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.mean_ms(), 0.0);
  EXPECT_EQ(h.max_ms(), 0.0);
}

TEST_F(ObsTest, HistogramConstantDistribution) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(42.0);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean_ms(), 42.0, 1e-9);
  EXPECT_EQ(h.max_ms(), 42.0);
  // All mass in one log bucket (~10% wide): every percentile lands there.
  for (double p : {1.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_NEAR(h.percentile(p), 42.0, 42.0 * 0.12) << "p" << p;
}

TEST_F(ObsTest, HistogramUniformDistributionPercentiles) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.observe(i * 0.1);  // uniform 0.1..1000 ms
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.mean_ms(), 500.05, 0.5);
  // Log buckets are ~10% wide at every scale; allow 15% relative error.
  EXPECT_NEAR(h.percentile(50), 500.0, 75.0);
  EXPECT_NEAR(h.percentile(90), 900.0, 135.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 149.0);
  EXPECT_EQ(h.max_ms(), 1000.0);
  // Percentiles are monotone in p.
  double prev = 0.0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST_F(ObsTest, HistogramBimodalDistribution) {
  // 90% fast (~0.01 ms cache hits), 10% slow (~100 ms misses): p50 must see
  // the fast mode, p99 the slow one — the exact case per-stage latency
  // histograms exist for.
  Histogram h;
  for (int i = 0; i < 900; ++i) h.observe(0.01);
  for (int i = 0; i < 100; ++i) h.observe(100.0);
  EXPECT_LT(h.percentile(50), 0.02);
  EXPECT_GT(h.percentile(99), 80.0);
}

TEST_F(ObsTest, HistogramOutOfRangeObservationsClamp) {
  Histogram h;
  h.observe(0.0);                         // below the first bucket
  h.observe(-1.0);                        // negative clamps to 0
  h.observe(Histogram::kMaxMs * 100.0);   // beyond the last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_GE(h.percentile(99), 0.0);
}

TEST_F(ObsTest, BucketIndexMatchesBounds) {
  for (double ms : {0.001, 0.01, 0.5, 1.0, 17.3, 500.0, 99999.0}) {
    const int i = Histogram::bucket_index(ms);
    EXPECT_LE(ms, Histogram::bucket_upper_ms(i)) << ms;
    if (i > 0) {
      EXPECT_GT(ms, Histogram::bucket_upper_ms(i - 1)) << ms;
    }
  }
}

// ------------------------------------------------- contention / atomicity ----

TEST_F(ObsTest, CounterAtomicUnderThreadPoolContention) {
  auto& c = MetricsRegistry::instance().counter("test.contended");
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr int kIncsPerTask = 10000;
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (int i = 0; i < kIncsPerTask; ++i) c.inc();
  });
  EXPECT_EQ(c.value(), kTasks * kIncsPerTask);
}

TEST_F(ObsTest, HistogramAtomicUnderThreadPoolContention) {
  auto& h = MetricsRegistry::instance().histogram("test.contended_hist");
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 32;
  constexpr int kObsPerTask = 5000;
  pool.parallel_for(kTasks, [&](std::size_t t) {
    for (int i = 0; i < kObsPerTask; ++i)
      h.observe(static_cast<double>(t + 1));  // 1..32 ms
  });
  EXPECT_EQ(h.count(), kTasks * kObsPerTask);
  // Sum accumulated via CAS: exact for these integral values.
  double expect_sum = 0;
  for (std::size_t t = 1; t <= kTasks; ++t)
    expect_sum += static_cast<double>(t) * kObsPerTask;
  EXPECT_DOUBLE_EQ(h.sum_ms(), expect_sum);
  EXPECT_EQ(h.max_ms(), static_cast<double>(kTasks));
}

TEST_F(ObsTest, RegistryLookupRacesResolveToSameInstrument) {
  ThreadPool pool(8);
  pool.parallel_for(64, [&](std::size_t) {
    MetricsRegistry::instance().counter("test.same").inc();
  });
  EXPECT_EQ(MetricsRegistry::instance().counter("test.same").value(), 64u);
}

TEST_F(ObsTest, TracerConcurrentRecording) {
  ThreadPool pool(8);
  pool.parallel_for(64, [&](std::size_t) {
    for (int i = 0; i < 100; ++i) {
      ScopedSpan span("contended", "test");
    }
  });
  EXPECT_EQ(Tracer::instance().event_count(), 6400u);
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

// ----------------------------------------------------------- trace export ----

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  {
    ScopedSpan span("invisible", "test");
    MURMUR_SPAN("also_invisible", "test");
  }
  add("invisible.counter");
  observe("invisible.hist", 1.0);
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  set_enabled(true);
  EXPECT_EQ(MetricsRegistry::instance().counter("invisible.counter").value(),
            0u);
}

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test",
                     &MetricsRegistry::instance().histogram("test.inner_ms"));
  }
  ThreadPool pool(4, "testpool");
  pool.parallel_for(8, [&](std::size_t) { ScopedSpan s("pooled", "test"); });

  const std::string json = Tracer::instance().to_chrome_json();
  const JsonValue root = JsonParser(json).parse();
  const auto& events = root.at("traceEvents").arr();
  std::set<std::string> names;
  std::set<std::string> thread_names;
  std::set<double> tids;
  std::size_t spans = 0, process_meta = 0;
  double prev_ts = -1.0;
  for (const auto& e : events) {
    if (e.at("ph").str() == "M") {
      // Metadata (process_name / thread_name) precedes every span.
      EXPECT_EQ(spans, 0u);
      if (e.at("name").str() == "process_name") ++process_meta;
      if (e.at("name").str() == "thread_name")
        thread_names.insert(e.at("args").at("name").str());
      continue;
    }
    ++spans;
    EXPECT_EQ(e.at("ph").str(), "X");
    EXPECT_GE(e.at("ts").num(), prev_ts);  // exporter sorts by start time
    prev_ts = e.at("ts").num();
    EXPECT_GE(e.at("dur").num(), 0.0);
    names.insert(e.at("name").str());
    tids.insert(e.at("tid").num());
  }
  EXPECT_EQ(spans, 10u);
  EXPECT_EQ(process_meta, 1u);  // one process_name metadata event
  // The named pool registered its workers; the exporter labels their tids.
  EXPECT_TRUE(thread_names.count("testpool/w0"));
  EXPECT_EQ(names, (std::set<std::string>{"outer", "inner", "pooled"}));
  EXPECT_GE(tids.size(), 2u);  // pooled spans ran on other threads
  // The inner span fed its histogram.
  EXPECT_EQ(MetricsRegistry::instance().histogram("test.inner_ms").count(), 1u);

  // File round trip.
  const std::string path =
      (std::filesystem::temp_directory_path() / "murmur_test_trace.json")
          .string();
  ASSERT_TRUE(Tracer::instance().write_chrome_trace(path));
  std::ifstream in(path);
  std::string from_file((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NO_THROW(JsonParser(from_file).parse());
  std::filesystem::remove(path);
}

TEST_F(ObsTest, MetricsJsonParsesBack) {
  MetricsRegistry::instance().counter("test.requests").inc(7);
  MetricsRegistry::instance().gauge("test.rate").set(0.25);
  auto& h = MetricsRegistry::instance().histogram("test.lat_ms");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  const JsonValue root =
      JsonParser(MetricsRegistry::instance().to_json()).parse();
  EXPECT_EQ(root.at("counters").at("test.requests").num(), 7.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.rate").num(), 0.25);
  const auto& hist = root.at("histograms").at("test.lat_ms").obj();
  EXPECT_EQ(hist.at("count").num(), 100.0);
  EXPECT_NEAR(hist.at("p50_ms").num(), 50.0, 10.0);
  EXPECT_NEAR(hist.at("p99_ms").num(), 99.0, 15.0);
  EXPECT_EQ(hist.at("max_ms").num(), 100.0);
}

TEST_F(ObsTest, JsonlSnapshotsAppendOneParsableLinePerCall) {
  MetricsRegistry::instance().counter("test.x").inc();
  const std::string path =
      (std::filesystem::temp_directory_path() / "murmur_test_metrics.jsonl")
          .string();
  std::filesystem::remove(path);
  ASSERT_TRUE(MetricsRegistry::instance().append_jsonl(path));
  MetricsRegistry::instance().counter("test.x").inc();
  ASSERT_TRUE(MetricsRegistry::instance().append_jsonl(path));
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const JsonValue root = JsonParser(line).parse();
    EXPECT_EQ(root.at("counters").at("test.x").num(),
              static_cast<double>(lines));
  }
  EXPECT_EQ(lines, 2);
  std::filesystem::remove(path);
}

// -------------------------------------------------------- system smoke ----

TEST_F(ObsTest, EveryInferProducesTheFullSpanSet) {
  core::TrainSetup setup;
  setup.scenario = netsim::Scenario::kAugmentedComputing;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  auto artifacts = core::train(setup);

  runtime::SystemOptions opts;
  opts.slo = core::Slo::latency_ms(400.0);
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  opts.telemetry = true;
  runtime::MurmurationSystem system(std::move(artifacts), opts);

  // Training above also traced; measure the serving window only.
  MetricsRegistry::instance().reset();
  Tracer::instance().clear();

  Rng rng(8);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) (void)system.infer(img);

  std::map<std::string, int> span_count;
  for (const auto& e : Tracer::instance().events()) span_count[e.name]++;
  // Stages that run unconditionally on every request.
  for (const char* name :
       {"infer", "monitor", "monitor.probe_all", "decision", "cache_lookup",
        "execute", "exec.run", "exec.tile"}) {
    EXPECT_GE(span_count[name], kRequests) << name;
  }
  // Reconfig spans only appear for actual switches: repeat requests to the
  // same strategy hold the resident submodel (reconfig.held) instead.
  EXPECT_GE(span_count["reconfig"], 1);
  EXPECT_EQ(span_count["reconfig"] +
                static_cast<int>(
                    MetricsRegistry::instance().counter("reconfig.held")
                        .value()),
            kRequests);
  // First request misses the cache and runs the RL policy.
  EXPECT_GE(span_count["rl_decision"], 1);

  auto& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("system.requests").value(),
            static_cast<std::uint64_t>(kRequests));
  for (const char* h : {"stage.request_ms", "stage.monitor_ms",
                        "stage.decision_ms", "stage.execute_ms"}) {
    EXPECT_EQ(reg.histogram(h).count(), static_cast<std::uint64_t>(kRequests))
        << h;
    EXPECT_GT(reg.histogram(h).percentile(99), 0.0) << h;
  }
  // Held switches skip the reconfig histogram along with the span.
  EXPECT_EQ(reg.histogram("stage.reconfig_ms").count(),
            static_cast<std::uint64_t>(span_count["reconfig"]));
  EXPECT_GT(reg.histogram("stage.reconfig_ms").percentile(99), 0.0);
  // Cache counters flowed into both the per-instance accessors and the
  // global registry.
  EXPECT_EQ(system.cache().hits() + system.cache().misses(),
            reg.counter("cache.hit").value() +
                reg.counter("cache.miss").value());
  EXPECT_GT(system.cache().hits(), 0u);

  // The trace is valid Chrome-trace JSON end to end.
  EXPECT_NO_THROW(JsonParser(Tracer::instance().to_chrome_json()).parse());
}

TEST_F(ObsTest, EveryMBConvOpRecordsAKernelSpan) {
  // Each op of a block — expand, depthwise, BN + activation, SE, project —
  // shows up as a kernel span, so a trace attributes a block's time per op.
  supernet::SupernetOptions o;
  o.width_mult = 0.1;
  o.classes = 10;
  supernet::Supernet net(o);
  supernet::SubnetConfig cfg = supernet::SubnetConfig::max_config();
  cfg.resolution = 160;
  for (auto& b : cfg.blocks) {
    b.quant = QuantBits::k32;
    b.grid = PartitionGrid{1, 1};
  }
  net.activate(cfg);
  Rng rng(9);
  (void)net.forward(Tensor::randn({1, 3, 160, 160}, rng, 0.0f, 0.5f));

  std::map<std::string, int> span_count;
  for (const auto& e : Tracer::instance().events()) span_count[e.name]++;
  int blocks = 0, se_blocks = 0;
  for (int b = 0; b < supernet::kMaxBlocks; ++b) {
    if (!cfg.block_active(b)) continue;
    ++blocks;
    se_blocks += supernet::kStageUsesSE[static_cast<std::size_t>(
        b / supernet::kMaxBlocksPerStage)];
  }
  ASSERT_GT(se_blocks, 0);
  // Three BNs per block plus the stem's and the head's.
  EXPECT_EQ(span_count["kernel.bn_act"], 3 * blocks + 2);
  EXPECT_EQ(span_count["kernel.se"], se_blocks);
  EXPECT_EQ(span_count["kernel.dwconv"], blocks);
  EXPECT_GE(span_count["kernel.conv"], 2 * blocks);  // expand, project
  auto& reg = MetricsRegistry::instance();
  EXPECT_EQ(reg.histogram("kernel.bn_act_ms").count(),
            static_cast<std::uint64_t>(3 * blocks + 2));
  EXPECT_EQ(reg.histogram("kernel.se_ms").count(),
            static_cast<std::uint64_t>(se_blocks));
}

TEST_F(ObsTest, TelemetryOffKeepsCacheAccessorsWorking) {
  set_enabled(false);
  core::TrainSetup setup;
  setup.trainer.total_steps = 10;
  setup.trainer.eval_every = 10;
  setup.trainer.eval_points = 2;
  setup.policy.hidden = 16;
  auto artifacts = core::train(setup);
  runtime::SystemOptions opts;
  opts.exec_width_mult = 0.1;
  opts.classes = 10;
  opts.use_predictor = false;
  runtime::MurmurationSystem system(std::move(artifacts), opts);
  Rng rng(9);
  Tensor img = Tensor::randn({1, 3, 224, 224}, rng, 0.0f, 0.5f);
  (void)system.infer(img);
  (void)system.infer(img);
  // Per-instance counters keep counting with the global switch off...
  EXPECT_GT(system.cache().hits(), 0u);
  EXPECT_GT(system.cache().misses(), 0u);
  EXPECT_GT(system.cache().hit_rate(), 0.0);
  // ...while nothing leaked into the disabled global tracer.
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

}  // namespace
}  // namespace murmur::obs
