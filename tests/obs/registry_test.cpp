#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace moonshot {
namespace {

#ifndef MOONSHOT_OBS_TEST_DIR
#error "MOONSHOT_OBS_TEST_DIR must point at tests/obs (set in tests/CMakeLists.txt)"
#endif

constexpr const char* kGoldenProm = MOONSHOT_OBS_TEST_DIR "/golden/registry.prom";

TEST(Registry, LookupsUpsertAndReturnTheSameSeries) {
  obs::Registry reg;
  EXPECT_TRUE(reg.empty());

  auto& c1 = reg.counter("requests_total", "Requests", {{"proto", "pm"}});
  c1.inc();
  // Same name + labels: same series, regardless of label insertion order.
  auto& c2 = reg.counter("requests_total", "Requests", {{"proto", "pm"}});
  EXPECT_EQ(&c1, &c2);
  c2.inc(2);
  EXPECT_EQ(c1.value(), 3u);

  // Different labels: a distinct series in the same family.
  auto& c3 = reg.counter("requests_total", "Requests", {{"proto", "cm"}});
  EXPECT_NE(&c1, &c3);
  EXPECT_EQ(c3.value(), 0u);
  EXPECT_FALSE(reg.empty());

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Registry, LabelOrderDoesNotSplitSeries) {
  obs::Registry reg;
  auto& a = reg.gauge("g", "h", {{"x", "1"}, {"y", "2"}});
  auto& b = reg.gauge("g", "h", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, CounterSetIsMonotone) {
  // set() mirrors externally-maintained counters; replaying a smaller value
  // (e.g. a second, shorter experiment reusing the registry) must not move
  // the counter backwards.
  obs::Counter c;
  c.set(10);
  c.set(4);
  EXPECT_EQ(c.value(), 10u);
  c.set(12);
  EXPECT_EQ(c.value(), 12u);
  c.inc();
  EXPECT_EQ(c.value(), 13u);
}

TEST(Registry, HistogramBucketsAreCumulativeInExposition) {
  obs::Registry reg;
  auto& h = reg.histogram("lat", "Latency", {},
                          {1'000'000, 10'000'000, 100'000'000});  // 1/10/100ms
  h.observe(milliseconds(5));   // -> (1ms, 10ms]
  h.observe(milliseconds(5));
  h.observe(milliseconds(50));  // -> (10ms, 100ms]
  h.observe(seconds(2));        // -> +Inf
  EXPECT_EQ(h.count(), 4u);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 0u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);

  const std::string text = reg.prometheus_text();
  // `le` bounds are seconds and counts are cumulative.
  EXPECT_NE(text.find("lat_bucket{le=\"0.001\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"0.01\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"0.1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 4\n"), std::string::npos);
  // _sum is seconds: 5 + 5 + 50 + 2000 ms = 2.06 s.
  EXPECT_NE(text.find("lat_sum 2.06\n"), std::string::npos);
}

TEST(Registry, HistogramResetKeepsBoundsAndClearsObservations) {
  obs::Registry reg;
  auto& h = reg.histogram("lat", "Latency", {}, {1'000'000});
  h.observe(milliseconds(5));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  ASSERT_EQ(h.bucket_counts().size(), 2u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  // Re-publishing after reset is last-write-wins, not accumulation.
  h.observe(milliseconds(2));
  EXPECT_EQ(h.count(), 1u);
}

TEST(Registry, SnapshotJsonlStampsRegistryTime) {
  obs::Registry reg;
  reg.counter("c", "help").inc(7);
  reg.set_time(TimePoint::zero() + milliseconds(1500));
  const std::string snap = reg.snapshot_jsonl();
  EXPECT_EQ(snap.find("{\"t\":1500000000,\"name\":\"c\",\"type\":\"counter\","
                      "\"labels\":{},\"value\":7}\n"),
            0u);

  // Advancing the clock restamps subsequent snapshots — that is how the
  // benches build a time series from one registry.
  reg.set_time(TimePoint::zero() + milliseconds(2500));
  EXPECT_EQ(reg.snapshot_jsonl().find("{\"t\":2500000000,"), 0u);
}

TEST(Registry, SnapshotJsonlCoversEveryTypeWithOneObjectPerLine) {
  obs::Registry reg;
  reg.counter("c", "h", {{"k", "v"}}).inc();
  reg.gauge("g", "h").set(2.5);
  reg.histogram("hst", "h").observe(milliseconds(3));
  const std::string snap = reg.snapshot_jsonl();

  std::size_t lines = 0, start = 0;
  while (start < snap.size()) {
    const std::size_t end = snap.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated final line";
    const std::string line = snap.substr(start, end - start);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find("{\"t\":"), 0u);
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(snap.find("\"labels\":{\"k\":\"v\"},\"value\":1"), std::string::npos);
  EXPECT_NE(snap.find("\"type\":\"gauge\",\"labels\":{},\"value\":2.5"),
            std::string::npos);
  EXPECT_NE(snap.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(snap.find("\"count\":1,\"sum\":3000000"), std::string::npos);
}

TEST(Registry, SnapshotJsonlEscapesControlBytesInLabels) {
  obs::Registry reg;
  reg.counter("c", "h", {{"k", "a\tb\rc\x01" "d"}}).inc();
  const std::string snap = reg.snapshot_jsonl();
  EXPECT_NE(snap.find("\"k\":\"a\\tb\\u000dc\\u0001d\""), std::string::npos)
      << snap;
  // Only the line terminator may be a raw control byte.
  for (std::size_t i = 0; i + 1 < snap.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(snap[i]), 0x20u) << "at " << i;
  }
  EXPECT_EQ(snap.back(), '\n');
}

TEST(Registry, PrometheusEscapesLabelValues) {
  obs::Registry reg;
  reg.counter("c", "h", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("c{path=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos);
}

// Golden-file check on the full exposition format: families in registration
// order, series sorted by label set, # HELP/# TYPE headers, histogram
// buckets/sum/count. Regenerate deliberately with MOONSHOT_UPDATE_GOLDEN=1.
TEST(Registry, PrometheusTextMatchesGolden) {
  obs::Registry reg;
  reg.set_time(TimePoint::zero() + seconds(10));
  reg.counter("view_change_total", "Views entered beyond the happy path",
              {{"protocol", "pm"}})
      .inc(3);
  reg.counter("view_change_total", "Views entered beyond the happy path",
              {{"protocol", "cm"}})
      .inc(5);
  reg.gauge("throughput_blocks_per_sec", "Committed blocks per second",
            {{"protocol", "pm"}})
      .set(99.5);
  reg.gauge("cert_cache_hit_ratio", "Certificate verify cache hit ratio")
      .set(0.875);
  auto& h = reg.histogram("commit_latency", "Observer commit latency",
                          {{"protocol", "pm"}},
                          {1'000'000, 10'000'000, 100'000'000, 1'000'000'000});
  for (int ms : {3, 7, 30, 30, 300}) h.observe(milliseconds(ms));
  const std::string got = reg.prometheus_text();
  ASSERT_FALSE(got.empty());

  if (std::getenv("MOONSHOT_UPDATE_GOLDEN")) {
    std::FILE* f = std::fopen(kGoldenProm, "wb");
    ASSERT_NE(f, nullptr) << "cannot write " << kGoldenProm;
    std::fwrite(got.data(), 1, got.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden file regenerated at " << kGoldenProm;
  }

  std::FILE* f = std::fopen(kGoldenProm, "rb");
  ASSERT_NE(f, nullptr) << "missing golden file " << kGoldenProm
                        << " — regenerate with MOONSHOT_UPDATE_GOLDEN=1";
  std::string want;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) want.append(buf, n);
  std::fclose(f);
  EXPECT_EQ(got, want) << "Prometheus exposition drifted; if intentional, "
                          "regenerate with MOONSHOT_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace moonshot
