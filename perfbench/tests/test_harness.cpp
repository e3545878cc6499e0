// Unit tests of the benchmark's measurement primitives.
#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "harness.hpp"

using namespace perfbench;

TEST(Stats, MedianOfOddAndEvenCounts) {
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
    // Expected values from statistics.quantiles(values, n=4).
    const Quartiles ten = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(ten.q1, 2.75);
    EXPECT_DOUBLE_EQ(ten.q2, 5.5);
    EXPECT_DOUBLE_EQ(ten.q3, 8.25);
    const Quartiles two = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(two.q1, 0.75);
    EXPECT_DOUBLE_EQ(two.q2, 1.5);
    EXPECT_DOUBLE_EQ(two.q3, 2.25);
    const Quartiles five = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(five.q1, 1.5);
    EXPECT_DOUBLE_EQ(five.q2, 3.0);
    EXPECT_DOUBLE_EQ(five.q3, 4.5);
    const Quartiles one = quartiles({7});
    EXPECT_DOUBLE_EQ(one.q1, 7.0);
    EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
    EXPECT_TRUE(percentile_supported(100, 0.9));
    EXPECT_FALSE(percentile_supported(99, 0.9));
    EXPECT_TRUE(percentile_supported(20, 0.5));
    EXPECT_FALSE(percentile_supported(19, 0.5));
    EXPECT_TRUE(percentile_supported(1000, 0.99));
    EXPECT_FALSE(percentile_supported(999, 0.99));
}

TEST(Memory, ParsesRssAnonAndRssFileFromStatusText) {
    const char* fixture =
        "Name:\ttvacr_perfbench\n"
        "VmRSS:\t  250000 kB\n"
        "RssAnon:\t   51200 kB\n"
        "RssFile:\t  198656 kB\n"
        "RssShmem:\t       0 kB\n"
        "Threads:\t5\n";
    const MemStatus status = parse_status(fixture);
    EXPECT_TRUE(status.ok);
    EXPECT_DOUBLE_EQ(status.rss_anon_mb, 50.0);
    EXPECT_DOUBLE_EQ(status.rss_file_mb, 194.0);
}

TEST(Memory, MissingOrMalformedFieldIsNotOk) {
    EXPECT_FALSE(parse_status("RssAnon:\t 1024 kB\n").ok);
    EXPECT_FALSE(parse_status("RssAnon:\t kB\nRssFile:\t 1 kB\n").ok);
    EXPECT_TRUE(read_self_status().ok);
}

namespace {

SpanRecord interval(const char* layer, int parent, std::int64_t start, std::int64_t end) {
    SpanRecord span;
    span.name = std::string(layer) + ".span";
    span.layer = layer;
    span.parent = parent;
    span.start_ns = start;
    span.end_ns = end;
    return span;
}

}  // namespace

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
    std::vector<SpanRecord> spans;
    spans.push_back(interval("bench", -1, 0, 100));  // 0: root
    spans.push_back(interval("core", 0, 10, 30));    // 1
    spans.push_back(interval("core", 0, 20, 50));    // 2: overlaps 1 (another thread)
    spans.push_back(interval("geo", 0, 90, 120));    // 3: runs past the root
    spans.push_back(interval("net", 1, 12, 17));     // 4: 5 ns inside 1

    const std::vector<std::int64_t> self = self_times_ns(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);  // union [10,50] plus clipped [90,100]
    EXPECT_EQ(self[1], 20 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 5);

    const RoundProfile profile = profile_round(spans, 0);
    EXPECT_DOUBLE_EQ(profile.wall_s, 100e-9);
    EXPECT_DOUBLE_EQ(profile.self_s.at("core"), 45e-9);
    EXPECT_DOUBLE_EQ(profile.self_s.at("net"), 5e-9);
    EXPECT_DOUBLE_EQ(profile.inclusive_s.at("net.span"), 5e-9);
}

TEST(Trace, SelfTimeIsNeverNegative) {
    std::vector<SpanRecord> spans;
    spans.push_back(interval("bench", -1, 0, 10));
    spans.push_back(interval("net", 0, 0, 10));
    spans.push_back(interval("net", 0, 2, 10));
    EXPECT_EQ(self_times_ns(spans)[0], 0);
}

TEST(Trace, SpansNestOnTheirThreadAndNameExplicitParentsAcrossThreads) {
    Tracer tracer;
    int root = -1;
    int child = -1;
    {
        Span outer(&tracer, "round", "bench");
        root = outer.id();
        {
            Span inner(&tracer, "core.testbed", "core");
            child = inner.id();
            EXPECT_EQ(current_span(), child);
        }
        EXPECT_EQ(current_span(), root);
        std::thread worker([&tracer, root] { Span remote(&tracer, "cell", "bench", root); });
        worker.join();
    }
    EXPECT_EQ(current_span(), -1);
    const std::vector<SpanRecord> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3U);
    EXPECT_EQ(spans[static_cast<std::size_t>(child)].parent, root);
    EXPECT_EQ(spans[2].parent, root);
    EXPECT_NE(spans[2].thread, spans[static_cast<std::size_t>(root)].thread);

    Span disabled(nullptr, "x", "bench");
    EXPECT_EQ(disabled.id(), -1);
    EXPECT_EQ(current_span(), -1);
}

TEST(Pool, ObserverSeesEverySubmittedTask) {
    ObservedPool pool(2);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 6; ++i) futures.push_back(pool.pool().submit([i] { return i; }));
    for (auto& future : futures) future.get();
    ASSERT_TRUE(pool.wait_for(6));
    EXPECT_EQ(pool.take().size(), 6U);
    EXPECT_TRUE(pool.take().empty());
}

TEST(Setup, ChildrenReportTheirSetUpTimes) {
    const std::vector<double> times = time_setup_in_children(2, [] {
        volatile double sink = 0;
        for (int i = 0; i < 1000; ++i) sink = sink + i;
    });
    ASSERT_EQ(times.size(), 2U);
    for (const double t : times) EXPECT_GE(t, 0.0);
}

TEST(Results, NumbersKeepAllTheirDigits) {
    EXPECT_EQ(format_number(0.1), "0.1");
    EXPECT_EQ(format_number(1.2034567890123), "1.2034567890123");
    EXPECT_EQ(format_number(3.0), "3");
    EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Results, RepeatCheckFailsADriftedCount) {
    RepeatCheck repeats;
    std::string why;
    EXPECT_TRUE(repeats.same("tv.captures", 7, why));
    EXPECT_TRUE(repeats.same("tv.captures", 7, why));
    EXPECT_TRUE(why.empty());
    EXPECT_FALSE(repeats.same("tv.captures", 8, why));
    EXPECT_NE(why.find("tv.captures"), std::string::npos);
    EXPECT_EQ(repeats.value("tv.captures"), 7U);

    Outcome outcome;
    outcome.check(true, "fine");
    outcome.check(false, "drift");
    EXPECT_EQ(outcome.attempted, 2U);
    EXPECT_EQ(outcome.failed, 1U);
}

TEST(Results, Fnv1aMatchesReferenceVectors) {
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}
