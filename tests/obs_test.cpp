#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cq::obs {
namespace {

TEST(Counter, CountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram h;
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.percentile(50.0), 0.0);
  EXPECT_EQ(snap.percentile(99.0), 0.0);
}

TEST(LatencyHistogram, SingleElementIsExactAtEveryPercentile) {
  LatencyHistogram h;
  h.record(137.25);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 137.25);
  EXPECT_EQ(snap.max, 137.25);
  // Interpolation inside the bucket is clamped into [min, max], so a
  // one-element sample reports that element exactly, not a bucket edge.
  for (const double q : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(snap.percentile(q), 137.25) << "q=" << q;
  }
}

TEST(LatencyHistogram, BucketIndexIsMonotoneAndBoundsItsValue) {
  // Every value must land in a bucket whose upper edge is >= the value
  // and whose index never decreases as values grow — including across
  // the power-of-two octave boundaries and the sub-1.0 floor bucket.
  std::size_t last = 0;
  for (const double v : {0.0, 0.5, 0.999, 1.0, 1.03, 1.999, 2.0, 3.0, 4.0, 63.9,
                         64.0, 1000.0, 1e6, 1e9}) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    EXPECT_LT(index, LatencyHistogram::kBuckets);
    EXPECT_GE(index, last) << "bucket index regressed at " << v;
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
    last = index;
  }
  // Garbage inputs must not escape the bucket range.
  EXPECT_EQ(LatencyHistogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::nan("")), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e30), LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, SnapshotPercentilesTrackTheExactReference) {
  // Random log-uniform draws spanning ~7 octaves: the snapshot
  // percentile must agree with util::percentile over the raw sample to
  // within the bucket's ~3.1% relative width.
  LatencyHistogram h;
  std::vector<double> raw;
  util::Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.uniform(0.0, 11.5));  // ~[1, 1e5]
    raw.push_back(v);
    h.record(v);
  }
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, raw.size());
  for (const double q : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double exact = util::percentile(raw, q);
    const double approx = snap.percentile(q);
    EXPECT_NEAR(approx, exact, 0.04 * exact) << "q=" << q;
  }
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(10.0 + t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.min, 10.0);
  EXPECT_EQ(snap.max, 13.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);  // no record fell between the arrays
}

TEST(LatencyHistogram, ResetClearsTheWindow) {
  LatencyHistogram h;
  h.record(5.0);
  h.record(500.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  const HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  h.record(7.0);  // a fresh window works after reset
  EXPECT_EQ(h.snapshot().percentile(50.0), 7.0);
}

TEST(UtilPercentile, MatchesOrderStatisticsWithInterpolation) {
  EXPECT_EQ(util::percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_EQ(util::percentile(std::vector<double>{42.0}, 0.0), 42.0);
  EXPECT_EQ(util::percentile(std::vector<double>{42.0}, 100.0), 42.0);
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(util::percentile(v, 0.0), 1.0);
  EXPECT_EQ(util::percentile(v, 100.0), 4.0);
  EXPECT_NEAR(util::percentile(v, 50.0), 2.5, 1e-12);  // rank 1.5
  // Out-of-range q clamps rather than indexing out of bounds.
  EXPECT_EQ(util::percentile(v, -5.0), 1.0);
  EXPECT_EQ(util::percentile(v, 120.0), 4.0);
  // The float overload agrees with the double one.
  const std::vector<float> f{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_NEAR(util::percentile(f, 50.0), 2.5, 1e-6);
}

TEST(Registry, InstrumentsAreStableAndExportable) {
  Registry registry;
  Counter& c = registry.counter("served", "requests served");
  EXPECT_EQ(&c, &registry.counter("served"));  // same instrument, not a twin
  c.inc(3);
  registry.gauge("depth").set(2.0);
  registry.histogram("lat_us", "latency").record(100.0);

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"served\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;

  const std::string prom = registry.to_prometheus();
  EXPECT_NE(prom.find("served_total 3"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE served counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("depth 2"), std::string::npos) << prom;
  EXPECT_NE(prom.find("lat_us_bucket{le=\"+Inf\"} 1"), std::string::npos) << prom;
  EXPECT_NE(prom.find("lat_us_count 1"), std::string::npos) << prom;

  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(registry.gauge("depth").value(), 0.0);
  EXPECT_EQ(registry.histogram("lat_us").count(), 0u);
}

TEST(PlanProfiler, AttributesEveryOpOfAProfiledSession) {
  const deploy::QuantizedArtifact artifact = serve::tiny_mlp_artifact();
  serve::EngineSession session(artifact, 1);
  PlanProfiler profiler(session.plan(), &session.backend());
  session.set_trace_sink(&profiler);
  constexpr int kRuns = 3;
  constexpr int kBatch = 4;
  for (int r = 0; r < kRuns; ++r) {
    session.run(serve::random_batch(session.sample_shape(), kBatch, 40 + r));
  }
  session.set_trace_sink(nullptr);

  const ProfileReport report = profiler.report();
  ASSERT_EQ(report.ops.size(), session.plan().ops().size());
  double share_total = 0.0;
  for (const OpProfileRow& row : report.ops) {
    EXPECT_EQ(row.calls, static_cast<std::uint64_t>(kRuns));
    EXPECT_EQ(row.samples, static_cast<std::uint64_t>(kRuns * kBatch));
    EXPECT_EQ(row.kind,
              deploy::op_kind_name(
                  session.plan().ops()[static_cast<std::size_t>(row.op)].kind));
    EXPECT_EQ(row.dispatch, session.backend().dispatch(
                                session.plan().ops()[static_cast<std::size_t>(row.op)]));
    share_total += row.share;
  }
  EXPECT_GT(report.total_ms, 0.0);
  EXPECT_NEAR(share_total, 1.0, 1e-9);
  EXPECT_FALSE(report.by_kind.empty());
  for (const ProfileAggregate& agg : report.by_layer) {
    EXPECT_NE(agg.key, "-");  // glue ops aggregate under kinds, not layers
  }
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"total_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);

  profiler.reset();
  EXPECT_EQ(profiler.report().total_ms, 0.0);
}

/// deploy::op_macs counts what perfbench's self-check counts by hand on
/// the paper-scale ResNet20 (base width 16, 32x32): 16*32*32 outputs x
/// 16*3*3 terms for a stage-1 conv, 64*10 for the float head, nothing
/// for glue ops. Profile rows carry the count and derive GMAC/s from it.
TEST(PlanProfiler, ReportsMacsPerOp) {
  nn::ResNet20Config cfg;
  cfg.base_width = 16;
  cfg.image_size = 32;
  nn::ResNet20 model(cfg);
  const deploy::ExecutionPlan plan = deploy::compile_plan(
      serve::fabricate_artifact(model, {cfg.in_channels, 32, 32}, 2, 7));
  bool conv_seen = false, head_seen = false;
  for (const deploy::PlanOp& op : plan.ops()) {
    const std::uint64_t macs = deploy::op_macs(op);
    if (op.kind == deploy::OpKind::IntConv && op.in_c == 16 && op.out_c == 16 &&
        op.kernel == 3 && op.stride == 1 && op.out_h == 32 && op.out_w == 32) {
      EXPECT_EQ(2359296u, macs);
      conv_seen = true;
    } else if (op.kind == deploy::OpKind::FloatLinear && op.in_features == 64 &&
               op.out_features == 10) {
      EXPECT_EQ(640u, macs);
      head_seen = true;
    } else if (!deploy::is_compute_op(op.kind)) {
      EXPECT_EQ(0u, macs) << deploy::op_kind_name(op.kind);
    }
  }
  EXPECT_TRUE(conv_seen);
  EXPECT_TRUE(head_seen);

  serve::EngineSession session(serve::tiny_mlp_artifact(), 1);
  PlanProfiler profiler(session.plan(), &session.backend());
  session.set_trace_sink(&profiler);
  session.run(serve::random_batch(session.sample_shape(), 4, 41));
  session.set_trace_sink(nullptr);
  const ProfileReport report = profiler.report();
  bool linear_seen = false;
  for (const OpProfileRow& row : report.ops) {
    const deploy::PlanOp& op = session.plan().ops()[static_cast<std::size_t>(row.op)];
    EXPECT_EQ(deploy::op_macs(op), row.macs);
    if (op.kind == deploy::OpKind::IntLinear) {
      linear_seen = true;
      EXPECT_EQ(static_cast<std::uint64_t>(op.in_features) * op.out_features, row.macs);
      EXPECT_GT(row.gmacs(), 0.0);
    }
    if (row.macs == 0) {
      EXPECT_EQ(0.0, row.gmacs());
    }
  }
  EXPECT_TRUE(linear_seen);
  EXPECT_NE(report.to_json().find("\"macs\": "), std::string::npos);
  EXPECT_NE(report.to_json().find("\"gmacs\": "), std::string::npos);
}

TEST(PlanProfiler, IgnoresEventsOutsideThePlan) {
  const deploy::QuantizedArtifact artifact = serve::tiny_mlp_artifact();
  serve::EngineSession session(artifact, 1);
  PlanProfiler profiler(session.plan(), &session.backend());
  OpEvent bogus;
  bogus.op = 10000;  // a sink must never trust event indices blindly
  bogus.batch = 1;
  bogus.ns = 100.0;
  profiler.on_op(bogus);
  bogus.op = -1;
  profiler.on_op(bogus);
  EXPECT_EQ(profiler.report().total_ms, 0.0);
}

TEST(ChromeTraceWriter, RendersSpansAsLoadableTraceEvents) {
  ChromeTraceWriter writer;
  const auto origin = std::chrono::steady_clock::now();
  RequestSpan span;
  span.id = 7;
  span.submit = origin;
  span.popped = origin + std::chrono::microseconds(50);
  span.exec_begin = origin + std::chrono::microseconds(60);
  span.exec_end = origin + std::chrono::microseconds(460);
  span.done = origin + std::chrono::microseconds(470);
  span.batch = 3;
  span.worker = 1;
  writer.on_span(span);
  EXPECT_EQ(writer.size(), 2u);  // one "queue" + one "execute" event

  const std::string path = testing::TempDir() + "obs_test_trace.json";
  ASSERT_TRUE(writer.write(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(16384, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"queue\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"execute\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("\"tid\": 7"), std::string::npos);
  EXPECT_NE(content.find("\"batch\": 3"), std::string::npos);
}

TEST(Logging, ParsesLevelNamesCaseInsensitively) {
  util::LogLevel level = util::LogLevel::kDebug;
  EXPECT_TRUE(util::parse_log_level("error", level));
  EXPECT_EQ(level, util::LogLevel::kError);
  EXPECT_TRUE(util::parse_log_level("WARN", level));
  EXPECT_EQ(level, util::LogLevel::kWarn);
  EXPECT_TRUE(util::parse_log_level("Warning", level));
  EXPECT_EQ(level, util::LogLevel::kWarn);
  EXPECT_TRUE(util::parse_log_level("info", level));
  EXPECT_EQ(level, util::LogLevel::kInfo);
  EXPECT_TRUE(util::parse_log_level("DEBUG", level));
  EXPECT_EQ(level, util::LogLevel::kDebug);
  level = util::LogLevel::kInfo;
  EXPECT_FALSE(util::parse_log_level("loud", level));
  EXPECT_EQ(level, util::LogLevel::kInfo);  // untouched on failure
  EXPECT_FALSE(util::parse_log_level("", level));
}

TEST(Logging, EnvironmentOverridesTheThreshold) {
  const util::LogLevel before = util::log_level();
  ASSERT_EQ(setenv("CQ_LOG_LEVEL", "error", 1), 0);
  util::refresh_log_level_from_env();
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  ASSERT_EQ(setenv("CQ_LOG_LEVEL", "definitely-not-a-level", 1), 0);
  util::refresh_log_level_from_env();  // unparsable: warn, keep the level
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  ASSERT_EQ(unsetenv("CQ_LOG_LEVEL"), 0);
  util::refresh_log_level_from_env();  // unset: keep the level
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  util::set_log_level(before);
}

}  // namespace
}  // namespace cq::obs
