// Unit tests for the observability layer: the deterministic metrics
// registry, the trace_event log, and the file emitters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/io.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace tvacr::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(RegistryTest, CountersAccumulateThroughStableHandles) {
    Registry registry;
    auto counter = registry.counter("dns.queries");
    counter.add();
    counter.add(4);
    // A second lookup of the same name reaches the same slot.
    auto again = registry.counter("dns.queries");
    again.add(5);
    EXPECT_EQ(counter.value(), 10U);
    EXPECT_EQ(registry.counter_value("dns.queries"), 10U);
    EXPECT_EQ(registry.counter_value("never.registered"), 0U);
}

TEST(RegistryTest, HandlesSurviveLaterInsertions) {
    // std::map nodes never move: a handle taken early must stay valid after
    // many interleaved registrations (this is what lets components cache
    // handles at construction).
    Registry registry;
    auto first = registry.counter("m.a");
    for (int i = 0; i < 100; ++i) registry.counter("m." + std::to_string(i)).add();
    first.add(7);
    EXPECT_EQ(registry.counter_value("m.a"), 7U);
}

TEST(RegistryTest, GaugeSetsAndOverwrites) {
    Registry registry;
    auto gauge = registry.gauge("sim.now_us");
    gauge.set(1.5);
    gauge.set(3.25);
    EXPECT_DOUBLE_EQ(registry.gauge_value("sim.now_us"), 3.25);
}

TEST(RegistryTest, HistogramTracksMomentsAndBuckets) {
    Registry registry;
    auto histogram = registry.histogram("lat");
    histogram.observe(0.5);   // bucket 0 (v < 1)
    histogram.observe(1.0);   // bucket 1 (1 <= v < 2)
    histogram.observe(3.0);   // bucket 2 (2 <= v < 4)
    histogram.observe(-2.0);  // negative clamps to bucket 0
    const HistogramData* data = registry.histogram_data("lat");
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->count, 4U);
    EXPECT_DOUBLE_EQ(data->sum, 2.5);
    EXPECT_DOUBLE_EQ(data->min, -2.0);
    EXPECT_DOUBLE_EQ(data->max, 3.0);
    EXPECT_EQ(data->buckets[0], 2U);
    EXPECT_EQ(data->buckets[1], 1U);
    EXPECT_EQ(data->buckets[2], 1U);
    EXPECT_DOUBLE_EQ(data->mean(), 0.625);
}

TEST(RegistryTest, AccessorsExposeSortedInstrumentMaps) {
    Registry registry;
    registry.counter("z").add(2);
    registry.counter("a").add(1);
    registry.gauge("g").set(4.5);
    registry.histogram("h").observe(3.0);
    ASSERT_EQ(registry.counters().size(), 2U);
    EXPECT_EQ(registry.counters().begin()->first, "a");  // name-sorted
    EXPECT_EQ(registry.counters().at("z"), 2U);
    EXPECT_DOUBLE_EQ(registry.gauges().at("g"), 4.5);
    EXPECT_EQ(registry.histograms().at("h").count, 1U);
}

TEST(RegistryTest, HistogramPercentileIsBucketUpperBoundClamped) {
    HistogramData data;
    for (int i = 0; i < 90; ++i) data.observe(3.0);   // bucket 2 (2 <= v < 4)
    for (int i = 0; i < 10; ++i) data.observe(100.0); // bucket 7 (64 <= v < 128)
    // p50 lands in bucket 2 -> upper bound 4; p95 in bucket 7 -> bound 128,
    // clamped to the observed max.
    EXPECT_DOUBLE_EQ(data.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(data.percentile(0.95), 100.0);
    // q clamps; an empty histogram reports 0.
    EXPECT_DOUBLE_EQ(data.percentile(-1.0), 4.0);
    EXPECT_DOUBLE_EQ(data.percentile(2.0), 100.0);
    EXPECT_DOUBLE_EQ(HistogramData{}.percentile(0.5), 0.0);
}

TEST(RegistryTest, MergeAddsCountersMergesHistogramsGaugeLastWins) {
    Registry a;
    a.counter("c").add(3);
    a.gauge("g").set(1.0);
    a.histogram("h").observe(2.0);
    Registry b;
    b.counter("c").add(4);
    b.counter("only_b").add(1);
    b.gauge("g").set(9.0);
    b.histogram("h").observe(8.0);
    a.merge(b);
    EXPECT_EQ(a.counter_value("c"), 7U);
    EXPECT_EQ(a.counter_value("only_b"), 1U);
    EXPECT_DOUBLE_EQ(a.gauge_value("g"), 9.0);
    const HistogramData* h = a.histogram_data("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2U);
    EXPECT_DOUBLE_EQ(h->min, 2.0);
    EXPECT_DOUBLE_EQ(h->max, 8.0);
}

TEST(RegistryTest, JsonIsSortedStableAndParsesIntegersCleanly) {
    Registry registry;
    registry.counter("b.second").add(2);
    registry.counter("a.first").add(1);
    registry.gauge("z.gauge").set(2.5);
    const std::string json = registry.to_json();
    // Keys in sorted order regardless of registration order.
    EXPECT_LT(json.find("\"a.first\""), json.find("\"b.second\""));
    EXPECT_NE(json.find("\"a.first\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"z.gauge\": 2.5"), std::string::npos);
    // Two registries with the same content serialize byte-identically.
    Registry other;
    other.gauge("z.gauge").set(2.5);
    other.counter("a.first").add(1);
    other.counter("b.second").add(2);
    EXPECT_EQ(json, other.to_json());
    EXPECT_EQ(json.back(), '\n');
}

TEST(RegistryTest, CsvHasOneRowPerInstrument) {
    Registry registry;
    registry.counter("c").add(5);
    registry.histogram("h").observe(1.0);
    const std::string csv = registry.to_csv();
    EXPECT_NE(csv.find("counter,c,5"), std::string::npos);
    EXPECT_NE(csv.find("histogram,h,1"), std::string::npos);
}

TEST(RegistryTest, EmptyRegistry) {
    Registry registry;
    EXPECT_TRUE(registry.empty());
    static_cast<void>(registry.counter("x"));
    EXPECT_FALSE(registry.empty());
}

// ------------------------------------------------------------------- trace

TEST(TraceLogTest, DisabledByDefaultSpansAreNoOps) {
    TraceLog log;
    EXPECT_FALSE(log.enabled());
    log.span("s", "cat", SimTime::micros(1), SimTime::micros(5));
    log.instant("i", "cat", SimTime::micros(2));
    EXPECT_TRUE(log.empty());
    // append() bypasses the gate — profiling data is recorded regardless.
    log.append(TraceEvent{});
    EXPECT_EQ(log.events().size(), 1U);
}

TEST(TraceLogTest, SpanAndInstantRecordSimTime) {
    TraceLog log;
    log.set_enabled(true);
    log.span("dns example.com", "dns", SimTime::micros(100), SimTime::micros(350), /*tid=*/1,
             {{"name", "example.com"}});
    log.instant("acr.peak_report", "acr", SimTime::micros(500), /*tid=*/3);
    ASSERT_EQ(log.events().size(), 2U);
    EXPECT_EQ(log.events()[0].phase, 'X');
    EXPECT_EQ(log.events()[0].ts_us, 100);
    EXPECT_EQ(log.events()[0].dur_us, 250);
    EXPECT_EQ(log.events()[0].tid, 1);
    EXPECT_EQ(log.events()[1].phase, 'i');
    EXPECT_EQ(log.events()[1].ts_us, 500);
}

TEST(TraceLogTest, ChromeJsonIsAValidEventArray) {
    TraceLog log;
    log.set_enabled(true);
    log.span("a \"quoted\" name", "cat\\slash", SimTime::micros(0), SimTime::micros(10));
    const std::string json = log.to_chrome_json();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after the array
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 10"), std::string::npos);
    // Escaping: the quote and backslash survive as JSON escapes.
    EXPECT_NE(json.find("a \\\"quoted\\\" name"), std::string::npos);
    EXPECT_NE(json.find("cat\\\\slash"), std::string::npos);
}

TEST(TraceLogTest, MergeFromAssignsPidsAndEmitsProcessName) {
    TraceLog cell;
    cell.set_enabled(true);
    cell.span("s", "dns", SimTime::micros(1), SimTime::micros(2));
    TraceLog merged;
    merged.merge_from(cell.events(), /*pid=*/7, "LG/UK/Linear/LIn-OIn");
    ASSERT_EQ(merged.events().size(), 2U);  // metadata + the span
    EXPECT_EQ(merged.events()[0].phase, 'M');
    EXPECT_EQ(merged.events()[0].name, "process_name");
    EXPECT_EQ(merged.events()[0].pid, 7);
    EXPECT_EQ(merged.events()[1].pid, 7);
    const std::string json = merged.to_chrome_json();
    EXPECT_NE(json.find("LG/UK/Linear/LIn-OIn"), std::string::npos);
}

TEST(TraceLogTest, CsvHasHeaderAndOneRowPerEvent) {
    TraceLog log;
    log.set_enabled(true);
    log.span("s", "c", SimTime::micros(3), SimTime::micros(9), /*tid=*/2);
    const std::string csv = log.to_csv();
    EXPECT_EQ(csv.rfind("name,category,phase,ts_us,dur_us,pid,tid\n", 0), 0U);
    EXPECT_NE(csv.find("s,c,X,3,6,0,2"), std::string::npos);
}

// ---------------------------------------------------------------------- io

TEST(ObsIoTest, WritesJsonOrCsvByExtension) {
    Registry registry;
    registry.counter("c").add(1);
    TraceLog log;
    log.set_enabled(true);
    log.span("s", "c", SimTime::micros(0), SimTime::micros(1));

    const std::string dir = ::testing::TempDir();
    const auto slurp = [](const std::string& path) {
        std::ifstream file(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    };

    const std::string metrics_json = dir + "/obs_metrics.json";
    const std::string metrics_csv = dir + "/obs_metrics.csv";
    ASSERT_TRUE(write_metrics_file(metrics_json, registry));
    ASSERT_TRUE(write_metrics_file(metrics_csv, registry));
    EXPECT_EQ(slurp(metrics_json), registry.to_json());
    EXPECT_EQ(slurp(metrics_csv), registry.to_csv());

    const std::string trace_json = dir + "/obs_trace.json";
    const std::string trace_csv = dir + "/obs_trace.csv";
    ASSERT_TRUE(write_trace_file(trace_json, log));
    ASSERT_TRUE(write_trace_file(trace_csv, log));
    EXPECT_EQ(slurp(trace_json), log.to_chrome_json());
    EXPECT_EQ(slurp(trace_csv), log.to_csv());

    std::remove(metrics_json.c_str());
    std::remove(metrics_csv.c_str());
    std::remove(trace_json.c_str());
    std::remove(trace_csv.c_str());

    EXPECT_FALSE(write_metrics_file(dir + "/no/such/dir/m.json", registry));
}

}  // namespace
}  // namespace tvacr::obs
