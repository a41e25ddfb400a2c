// Unit tests for src/common: RNG, stats, units, tables, thread pool,
// linear regression, serialization, simulated clock.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <future>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/linreg.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "fuzz_util.h"

namespace murmur {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproxHalf) {
  Rng rng(7);
  RunningStat s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ForkIndependent) {
  Rng a(21);
  Rng b = a.fork();
  EXPECT_NE(a(), b());
}

// --------------------------------------------------------------- stats ----

TEST(RunningStat, MeanVarMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, MeanStddevSpan) {
  std::vector<double> xs = {1, 3};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  for (int i = 0; i < 50; ++i) e.add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSampleTaken) {
  Ewma e(0.1);
  e.add(4.2);
  EXPECT_DOUBLE_EQ(e.value(), 4.2);
}

// --------------------------------------------------------------- units ----

TEST(Units, BandwidthTransfer) {
  const auto bw = Bandwidth::from_mbps(100.0);
  // 100 Mbps = 12.5 MB/s -> 1 MB takes 80 ms.
  EXPECT_NEAR(bw.transfer_ms(1e6), 80.0, 1e-9);
  EXPECT_NEAR(Bandwidth::from_gbps(1.0).mbps, 1000.0, 1e-12);
}

TEST(Units, ThroughputCompute) {
  const auto t = Throughput::from_gflops(2.0);
  EXPECT_NEAR(t.compute_ms(2e9), 1000.0, 1e-9);
  EXPECT_EQ(Throughput::from_gflops(0).compute_ms(1e9), 0.0);
}

TEST(Units, DurationArithmetic) {
  const auto d = Duration::from_s(1.5) + Duration::from_ms(500);
  EXPECT_DOUBLE_EQ(d.ms, 2000.0);
  EXPECT_DOUBLE_EQ(d.seconds(), 2.0);
}

// --------------------------------------------------------------- table ----

TEST(Table, TextAndCsv) {
  Table t({"name", "value"});
  t.new_row().add("a").add(1.5);
  t.new_row().add("b").add_blank();
  const auto text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.500"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("a,1.500"), std::string::npos);
  EXPECT_NE(csv.find("b,\n"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.new_row().add("va\"l,ue");
  EXPECT_NE(t.to_csv().find("\"va\"\"l,ue\""), std::string::npos);
}

// --------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, EveryWorkerIsNamedWhenTheConstructorReturns) {
  // A trace exported right after construction must label every worker,
  // not only those the scheduler happened to start first.
  ThreadPool pool(4, "namedpool");
  std::set<std::string> names;
  for (const auto& [tid, name] : thread_names()) names.insert(name);
  for (int k = 0; k < 4; ++k)
    EXPECT_TRUE(names.count("namedpool/w" + std::to_string(k)))
        << "namedpool/w" << k;
}

// -------------------------------------------------------------- linreg ----

TEST(SimpleLinReg, RecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const auto fit = SimpleLinReg::fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
  EXPECT_NEAR(fit.predict(100), 203.0, 1e-9);
}

TEST(SimpleLinReg, DegenerateXGivesMean) {
  std::vector<double> xs = {1, 1, 1}, ys = {2, 4, 6};
  const auto fit = SimpleLinReg::fit(xs, ys);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 4.0);
}

TEST(MultiLinReg, RecoversPlane) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y.push_back(1.0 + 2.0 * a - 3.0 * b);
  }
  MultiLinReg m;
  ASSERT_TRUE(m.fit(x, y));
  EXPECT_NEAR(m.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(m.weights()[1], -3.0, 1e-6);
  EXPECT_NEAR(m.bias(), 1.0, 1e-6);
  EXPECT_NEAR(m.predict(std::vector<double>{0.5, 0.5}), 0.5, 1e-6);
}

TEST(LinearSystem, SolvesAndDetectsSingular) {
  std::vector<std::vector<double>> a = {{2, 1}, {1, 3}};
  std::vector<double> b = {5, 10};
  ASSERT_TRUE(solve_linear_system(a, b));
  EXPECT_NEAR(b[0], 1.0, 1e-9);
  EXPECT_NEAR(b[1], 3.0, 1e-9);
  std::vector<std::vector<double>> s = {{1, 2}, {2, 4}};
  std::vector<double> sb = {1, 2};
  EXPECT_FALSE(solve_linear_system(s, sb));
}

// ----------------------------------------------------------- serialize ----

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.write_u32(7);
  w.write_u64(1ull << 40);
  w.write_i32(-5);
  w.write_f32(1.5f);
  w.write_f64(2.25);
  w.write_string("hello");
  ByteReader r(w.data());
  std::uint32_t a;
  std::uint64_t b;
  std::int32_t c;
  float d;
  double e;
  std::string s;
  ASSERT_TRUE(r.read_u32(a));
  ASSERT_TRUE(r.read_u64(b));
  ASSERT_TRUE(r.read_i32(c));
  ASSERT_TRUE(r.read_f32(d));
  ASSERT_TRUE(r.read_f64(e));
  ASSERT_TRUE(r.read_string(s));
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(b, 1ull << 40);
  EXPECT_EQ(c, -5);
  EXPECT_EQ(d, 1.5f);
  EXPECT_EQ(e, 2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, RoundTripVectors) {
  ByteWriter w;
  std::vector<float> f = {1, 2, 3};
  std::vector<double> d = {4, 5};
  w.write_f32_span(f);
  w.write_f64_span(d);
  ByteReader r(w.data());
  std::vector<float> f2;
  std::vector<double> d2;
  ASSERT_TRUE(r.read_f32_vec(f2));
  ASSERT_TRUE(r.read_f64_vec(d2));
  EXPECT_EQ(f, f2);
  EXPECT_EQ(d, d2);
}

TEST(Serialize, UnderflowPoisons) {
  ByteWriter w;
  w.write_u32(1);
  ByteReader r(w.data());
  std::uint64_t v;
  EXPECT_FALSE(r.read_u64(v));
  EXPECT_FALSE(r.ok());
  std::uint32_t u;
  EXPECT_FALSE(r.read_u32(u));  // poisoned
}

TEST(Serialize, BytesRoundTrip) {
  ByteWriter w;
  std::vector<std::uint8_t> payload = {1, 2, 3, 255};
  w.write_bytes(payload);
  ByteReader r(w.data());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(r.read_bytes(out));
  EXPECT_EQ(out, payload);
}

// ------------------------------------------- checked checkpoint container ----

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::vector<std::uint8_t> demo_payload() {
  std::vector<std::uint8_t> p(257);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return p;
}

TEST(CheckedFile, RoundTripsAndLeavesNoTempFile) {
  const std::string path = temp_path("checked_roundtrip.bin");
  const auto payload = demo_payload();
  ASSERT_TRUE(save_checked_file(path, payload, /*version=*/3));
  const auto loaded = load_checked_file(path, 3);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  // Write-then-rename: the temporary staging file must be gone.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  // An empty payload is a valid frame too.
  ASSERT_TRUE(save_checked_file(path, std::span<const std::uint8_t>{}, 3));
  const auto empty = load_checked_file(path, 3);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(CheckedFile, RejectsWrongVersionAndMissingFile) {
  const std::string path = temp_path("checked_version.bin");
  ASSERT_TRUE(save_checked_file(path, demo_payload(), 3));
  EXPECT_FALSE(load_checked_file(path, 4).has_value());
  EXPECT_TRUE(load_checked_file(path, 3).has_value());
  EXPECT_FALSE(load_checked_file(temp_path("no_such_file.bin"), 3));
}

/// Raw bytes of a freshly saved MCKF frame around `payload`.
std::vector<std::uint8_t> mckf_frame_bytes(
    const std::vector<std::uint8_t>& payload, std::uint32_t version) {
  const std::string path = temp_path("checked_frame.bin");
  EXPECT_TRUE(save_checked_file(path, payload, version));
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// load_checked_file adapter for the shared fuzz sweeps: stage the mutant
/// bytes as a file, report whether the loader accepted it.
testfuzz::Accepts mckf_accepts(std::uint32_t version) {
  return [version](std::span<const std::uint8_t> bytes) {
    const std::string path = temp_path("checked_mutant.bin");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.close();
    return load_checked_file(path, version).has_value();
  };
}

TEST(CheckedFile, EveryTruncationRejected) {
  const auto payload = demo_payload();
  const auto bytes = mckf_frame_bytes(payload, 1);
  ASSERT_GT(bytes.size(), payload.size());
  EXPECT_EQ(testfuzz::count_truncation_survivors(bytes, mckf_accepts(1),
                                                 /*step=*/13),
            0u);
}

TEST(CheckedFile, EveryBitFlipRejected) {
  // The FNV-1a checksum covers magic through payload, and the loader
  // rejects length mismatches and trailing bytes — so EVERY single-bit
  // mutant of the frame must be rejected, not just most.
  const auto bytes = mckf_frame_bytes(demo_payload(), 1);
  EXPECT_EQ(testfuzz::count_bit_flip_survivors(bytes, mckf_accepts(1)), 0u);
}

TEST(CheckedFile, CorruptionCorpusHasZeroSurvivors) {
  const auto bytes = mckf_frame_bytes(demo_payload(), 1);
  const auto stats = testfuzz::fuzz_corruption_corpus(bytes, mckf_accepts(1),
                                                      /*seed=*/41,
                                                      /*trials=*/400);
  EXPECT_GT(stats.mutants, 0u);
  EXPECT_EQ(stats.accepted, 0u)
      << stats.accepted << " corrupted frames of " << stats.mutants
      << " accepted";
}

TEST(CheckedFile, Fnv1aMatchesReference) {
  // Reference vectors for 64-bit FNV-1a.
  EXPECT_EQ(fnv1a64({}), 0xcbf29ce484222325ULL);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cULL);
}

// ------------------------------------------------- thread pool visibility ----

TEST(ThreadPool, PendingAndActiveObservable) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.active(), 0u);
  std::promise<void> gate;
  auto release = gate.get_future().share();
  auto first = pool.submit([release] { release.wait(); });
  auto second = pool.submit([] {});
  // The single worker is stuck in the first task; the second waits.
  while (pool.active() == 0) std::this_thread::yield();
  EXPECT_EQ(pool.active(), 1u);
  EXPECT_EQ(pool.pending(), 1u);
  gate.set_value();
  first.get();
  second.get();
  EXPECT_EQ(pool.pending(), 0u);
}

}  // namespace
}  // namespace murmur
