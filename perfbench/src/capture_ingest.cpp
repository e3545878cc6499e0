// capture_ingest: one synthetic pcap (capture_gen.hpp: 48 domains, DNS answers
// staggered through the first half, the rest of the mix assumed), written
// before timing starts, analysed four ways per round:
//   (a) pcap -> net::PcapReader -> analysis::StreamingCaptureAnalyzer, pool of 4
//   (b) pcap -> events-mode .tvcr transcode (a write)
//   (c) cold .tvcr replay through replay::ReplayEngine, pool of 4 (a read)
//   (d) the pcap tailed through gateway::StreamSource -> Gateway on 1 worker,
//       closed loop (the next chunk is polled after the previous one is
//       drained), with a snapshot at 20 fixed stream positions.
//
// Why: it bypasses fp, sim, tv and identify entirely and uses the analysis
// layer three ways (two-pass batch, columnar replay, incremental snapshot)
// with a write beside a read, so a gain for one path that costs another
// shows. Its size is chosen so one pass takes tens of milliseconds or more:
// the program is measured, not the timer.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "analysis/stream.hpp"
#include "capture_gen.hpp"
#include "gateway/gateway.hpp"
#include "gateway/source.hpp"
#include "net/pcap.hpp"
#include "replay/replay.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tvacr;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kSnapshots = 20;
constexpr std::size_t kPollBytes = 256 * 1024;

/// The serial reference: analysis::CaptureAnalyzer fed record by record.
Result<std::string> serial_report(const std::string& pcap) {
    auto reader = net::PcapReader::open(pcap);
    if (!reader.ok()) return reader.error();
    analysis::CaptureAnalyzer analyzer(capture_device());
    while (true) {
        auto record = reader.value().next();
        if (!record.ok()) return record.error();
        if (!record.value().has_value()) break;
        const auto& r = *record.value();
        analyzer.ingest(net::Packet{r.timestamp, Bytes(r.frame.begin(), r.frame.end())});
    }
    return replay::canonical_report(analyzer);
}

/// Reads every record of `pcap` and ingests none; returns the record count.
Result<std::uint64_t> read_only(const std::string& pcap) {
    auto reader = net::PcapReader::open(pcap);
    if (!reader.ok()) return reader.error();
    std::uint64_t records = 0;
    while (true) {
        auto record = reader.value().next();
        if (!record.ok()) return record.error();
        if (!record.value().has_value()) return records;
        ++records;
    }
}

/// Pool of 4 whose observed shard tasks become child spans of `parent`.
class ShardPool {
  public:
    ShardPool() : pool_(kShards) {}

    analysis::StreamOptions options() {
        analysis::StreamOptions options;
        options.shards = kShards;
        options.pool = &pool_.pool();
        return options;
    }

    /// Collects the kShards tasks the last finish()/run() submitted; returns
    /// the longest task run time, or a negative value on a timeout.
    double collect(Tracer* tracer, int parent) {
        expected_ += kShards;
        if (!pool_.wait_for(expected_)) return -1.0;
        double longest = 0.0;
        for (const auto& timing : pool_.take()) {
            longest = std::max(longest, static_cast<double>(timing.run_ns()) * 1e-9);
            if (tracer != nullptr) {
                tracer->add_interval("analysis.shard", "analysis", parent,
                                     pool_.epoch_ns() + timing.start_ns,
                                     pool_.epoch_ns() + timing.finish_ns, 1000 + timing.worker);
            }
        }
        return longest;
    }

  private:
    ObservedPool pool_;
    std::uint64_t expected_ = 0;
};

/// Per-round measurements. Memory is sampled where each path's result is
/// alive, so the round's RssAnon maximum does not hinge on the sampler
/// thread catching a short-lived peak.
struct Round {
    MemSampler* memory = nullptr;
    double analyze_s = 0.0;
    double transcode_s = 0.0;
    double replay_s = 0.0;
    double gateway_s = 0.0;           // ingest only: poll + drain, snapshots excluded
    std::vector<double> snapshot_ms;  // the mid-stream snapshots
    double shard_run_max_s = 0.0;
    std::uint64_t tvcr_bytes = 0;
    std::uint64_t blocks = 0;
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    std::size_t ring_occupancy_max = 0;
};

/// Median over rounds of one per-round figure.
template <typename T>
double median_of(const std::vector<Round>& rounds, T Round::*field) {
    std::vector<double> values;
    for (const Round& round : rounds) values.push_back(static_cast<double>(round.*field));
    return median(values);
}

class Ingest {
  public:
    Ingest(std::string pcap, std::string tvcr, std::uint64_t records)
        : pcap_(std::move(pcap)), tvcr_(std::move(tvcr)), records_(records) {}

    /// (a) Returns the canonical report, or an error description. Spans wrap
    /// whole loops, never single PcapReader::next or ingest calls, whose cost
    /// is near that of a clock read: a traced pass first reads the file once
    /// without ingesting (net.read), then runs the analyzer's first pass, the
    /// read+ingest loop (analysis.pass1). Ingest alone, the difference of the
    /// two, is a few percent of either and lies inside their noise.
    Result<std::string> analyze(Round& round, Tracer* tracer) {
        Span pass(tracer, "pass.analyze", "bench");
        if (tracer != nullptr) {
            Span span(tracer, "net.read", "net");
            const auto read = read_only(pcap_);
            if (!read.ok()) return read.error();
            if (read.value() != records_) return make_error("read-only pass lost records");
        }
        const double t0 = now_s();
        analysis::StreamingCaptureAnalyzer analyzer(capture_device(), shards_.options());
        {
            Span span(tracer, "analysis.pass1", "analysis");
            auto reader = net::PcapReader::open(pcap_);
            if (!reader.ok()) return reader.error();
            while (true) {
                auto record = reader.value().next();
                if (!record.ok()) return record.error();
                if (!record.value().has_value()) break;
                const net::PcapRecord& r = *record.value();
                analyzer.ingest(r.frame, r.timestamp);
            }
        }
        std::optional<analysis::CaptureAnalyzer> result;
        {
            Span span(tracer, "analysis.finish", "analysis");
            result.emplace(analyzer.finish());
            round.shard_run_max_s = shards_.collect(tracer, span.id());
        }
        if (round.memory != nullptr) round.memory->sample();
        round.analyze_s = now_s() - t0;
        if (round.shard_run_max_s < 0) return make_error("shard tasks were not all observed");
        return replay::canonical_report(*result);
    }

    /// (b) Returns the number of records transcoded.
    Result<std::uint64_t> transcode(Round& round, Tracer* tracer) {
        const double t0 = now_s();
        std::optional<Result<replay::TranscodeStats>> stats;
        {
            Span span(tracer, "replay.transcode", "replay");
            stats.emplace(replay::transcode_pcap_to_tvcr(pcap_, tvcr_));
        }
        round.transcode_s = now_s() - t0;
        if (!stats->ok()) return stats->error();
        round.tvcr_bytes = stats->value().output_bytes;
        return stats->value().records;
    }

    /// (c)
    Result<std::string> replay(Round& round, Tracer* tracer) {
        const double t0 = now_s();
        Span pass(tracer, "pass.replay", "bench");
        std::optional<Result<replay::ReplayEngine>> engine;
        {
            Span span(tracer, "replay.open", "replay");
            engine.emplace(replay::ReplayEngine::open(tvcr_));
        }
        if (!engine->ok()) return engine->error();
        replay::ReplayOptions options;
        options.stream = shards_.options();
        std::optional<Result<analysis::CaptureAnalyzer>> result;
        {
            Span span(tracer, "replay.run", "replay");
            result.emplace(engine->value().run(capture_device(), options));
            if (result->ok() && shards_.collect(tracer, span.id()) < 0) {
                return make_error("shard tasks were not all observed");
            }
        }
        round.replay_s = now_s() - t0;
        if (!result->ok()) return result->error();
        if (round.memory != nullptr) round.memory->sample();
        round.blocks = engine->value().last_stats().blocks_read;
        return replay::canonical_report(result->value());
    }

    /// (d) Returns the final snapshot's report; fails on broken accounting.
    Result<std::string> gateway(Round& round, Tracer* tracer, std::uint64_t& snapshot_failures) {
        Span pass(tracer, "pass.gateway", "bench");
        gateway::GatewayOptions options;
        options.device_ip = capture_device();
        options.workers = 1;
        gateway::Gateway gw(options);
        std::optional<Result<gateway::StreamSource>> source;
        double ingest_s = 0.0;
        double t0 = now_s();
        {
            Span span(tracer, "gateway.open", "gateway");
            source.emplace(gateway::StreamSource::open_file(pcap_));
        }
        if (!source->ok()) return source->error();
        const std::uint64_t step = std::max<std::uint64_t>(records_ / kSnapshots, 1);
        std::uint64_t next_snapshot = step;
        while (true) {
            std::optional<Result<gateway::SourceStatus>> status;
            {
                Span span(tracer, "gateway.poll", "gateway");
                status.emplace(source->value().poll(gw, kPollBytes));
            }
            if (!status->ok()) return status->error();
            round.ring_occupancy_max = std::max(round.ring_occupancy_max, gw.ring_occupancy());
            {
                Span span(tracer, "gateway.drain", "gateway");
                gw.drain_all();
            }
            while (gw.drained() >= next_snapshot && next_snapshot <= records_) {
                const double s0 = now_s();
                ingest_s += s0 - t0;
                {
                    Span span(tracer, "gateway.snapshot", "gateway");
                    const analysis::CaptureAnalyzer snapshot = gw.snapshot();
                    round.snapshot_ms.push_back((now_s() - s0) * 1e3);
                    if (snapshot.packets_total() != gw.drained()) ++snapshot_failures;
                    if (round.memory != nullptr) round.memory->sample();
                }
                t0 = now_s();
                next_snapshot += step;
            }
            if (status->value() != gateway::SourceStatus::kProgress) break;
        }
        source->value().finalize(gw);
        gw.drain_all();
        ingest_s += now_s() - t0;
        round.gateway_s = ingest_s;
        round.offered = gw.offered();
        round.dropped = gw.dropped();
        if (!gw.conservation_ok()) return make_error("gateway conservation violated");
        Span span(tracer, "gateway.snapshot", "gateway");
        const analysis::CaptureAnalyzer final_snapshot = gw.snapshot();
        if (round.memory != nullptr) round.memory->sample();
        return replay::canonical_report(final_snapshot);
    }

  private:
    std::string pcap_;
    std::string tvcr_;
    std::uint64_t records_ = 0;
    ShardPool shards_;
};

}  // namespace

Outcome run_capture_ingest(const RunConfig& config) {
    Outcome outcome;
    CaptureSpec spec;
    spec.seed = config.seed;
    spec.packets = config.tiny ? 20'000 : spec.packets;
    std::filesystem::create_directories(config.workdir);
    const std::string stem = config.workdir + "/capture-" + std::to_string(config.seed);
    const std::string pcap = stem + ".pcap";
    const std::string tvcr = stem + ".tvcr";
    struct Cleanup {
        std::string pcap, tvcr;
        ~Cleanup() {
            std::error_code ignored;
            std::filesystem::remove(pcap, ignored);
            std::filesystem::remove(tvcr, ignored);
        }
    } cleanup{pcap, tvcr};

    // Input generation and the serial reference: outside set-up and timing.
    const auto written = write_capture(pcap, spec);
    if (!written.ok()) {
        outcome.check(false, "capture generation: " + written.error().message);
        return outcome;
    }
    const std::uint64_t records = written.value().records;
    const double pcap_mb = static_cast<double>(written.value().bytes) / 1e6;
    const auto reference = serial_report(pcap);
    if (!reference.ok()) {
        outcome.check(false, "serial reference: " + reference.error().message);
        return outcome;
    }
    outcome.inputs["records"] = std::to_string(records);
    outcome.inputs["pcap_bytes"] = std::to_string(written.value().bytes);
    outcome.inputs["domains"] = std::to_string(spec.domains);
    outcome.inputs["pool_workers"] = std::to_string(kShards);
    outcome.inputs["gateway_workers"] = "1";
    outcome.inputs["snapshots_per_pass"] = std::to_string(kSnapshots);

    // Set-up: the pool of 4, then one warm (a) pass and one (b) transcode,
    // which also leaves the .tvcr file (c) opens.
    std::optional<Ingest> ingest;
    const auto setup = [&]() {
        ingest.emplace(pcap, tvcr, records);
        Round warm;
        (void)ingest->analyze(warm, nullptr);
        (void)ingest->transcode(warm, nullptr);
    };
    std::vector<double> setup_s = time_setup_in_children(config.setup_forks, setup);
    if (static_cast<int>(setup_s.size()) != config.setup_forks) outcome.fail("set-up child failed");
    {
        const double t0 = now_s();
        setup();
        setup_s.push_back(now_s() - t0);
    }

    MemSampler memory;
    RepeatCheck repeats;
    RoundTimes rounds(memory);
    TraceSummary summary;
    Tracer tracer;
    std::vector<Round> untraced;
    std::vector<Round> traced;

    // One operation per pass plus one per gateway snapshot.
    const auto one_round = [&](Tracer* t, Round& round) {
        round.memory = &memory;
        const auto error = [](const auto& result) {
            return result.ok() ? std::string() : result.error().message;
        };
        const auto a = ingest->analyze(round, t);
        outcome.check(a.ok() && a.value() == reference.value(),
                      "analyze pass differs from the serial analyzer " + error(a));

        std::string why;
        const auto b = ingest->transcode(round, t);
        bool ok = b.ok() && b.value() == records;
        ok = repeats.same("replay.tvcr_bytes", round.tvcr_bytes, why) && ok;
        outcome.check(ok, "transcode: " + why + error(b));

        why.clear();
        const auto c = ingest->replay(round, t);
        ok = c.ok() && c.value() == reference.value();
        ok = repeats.same("replay.blocks", round.blocks, why) && ok;
        outcome.check(ok, "replay differs from the serial analyzer " + why + error(c));

        why.clear();
        std::uint64_t snapshot_failures = 0;
        const auto d = ingest->gateway(round, t, snapshot_failures);
        outcome.attempted += round.snapshot_ms.size();
        outcome.failed += snapshot_failures;
        ok = d.ok() && d.value() == reference.value() && round.dropped == 0 &&
             round.offered == records;
        ok = repeats.same("gateway.offered", round.offered, why) && ok;
        ok = repeats.same("gateway.dropped", round.dropped, why) && ok;
        outcome.check(ok, "gateway final snapshot or accounting: " + why + error(d));
    };

    const double start = now_s();
    while (keep_going(start, config.seconds, rounds.wall.size())) {
        Round round;
        rounds.measure([&]() { one_round(nullptr, round); });
        summary.untraced_wall_s.push_back(rounds.wall.back());
        untraced.push_back(std::move(round));
        if (!config.trace) continue;
        Round traced_round;
        int root = -1;
        {
            Span span(&tracer, "round", "bench");
            root = span.id();
            one_round(&tracer, traced_round);
        }
        summary.traced.push_back(profile_round(tracer.spans(), root));
        traced.push_back(std::move(traced_round));
    }

    std::vector<double> snapshot_ms;
    for (const Round& r : untraced) {
        snapshot_ms.insert(snapshot_ms.end(), r.snapshot_ms.begin(), r.snapshot_ms.end());
    }
    const auto n = static_cast<double>(records);
    put(outcome.named, "analyze_pkts_per_s", n / median_of(untraced, &Round::analyze_s), "1/s");
    put(outcome.named, "transcode_mb_per_s", pcap_mb / median_of(untraced, &Round::transcode_s),
        "MB/s");
    put(outcome.named, "replay_pkts_per_s", n / median_of(untraced, &Round::replay_s), "1/s");
    put(outcome.named, "gateway_records_per_s", n / median_of(untraced, &Round::gateway_s), "1/s");
    put(outcome.named, "snapshot_p50_ms", percentile(snapshot_ms, 0.5), "ms");
    put(outcome.named, "snapshot_p90_ms", percentile(snapshot_ms, 0.9), "ms");
    outcome.samples["rounds"] = rounds.wall.size();
    outcome.samples["snapshots"] = snapshot_ms.size();
    outcome.samples["snapshot_p90_supported"] = percentile_supported(snapshot_ms.size(), 0.9);
    outcome.samples["setup"] = setup_s.size();
    if (!config.trace) {
        report_end_to_end(outcome, setup_s, rounds);
        return outcome;
    }

    outcome.samples["traced_rounds"] = summary.traced.size();
    report_trace(outcome, summary,
                 {{"net.read", "net.read_s"},
                  {"analysis.pass1", "analysis.pass1_s"},
                  {"analysis.finish", "analysis.finish_s"},
                  {"replay.transcode", "replay.transcode_s"},
                  {"gateway.poll", "gateway.poll_s"},
                  {"gateway.drain", "gateway.drain_s"},
                  {"gateway.snapshot", "gateway.snapshot_s"}});
    const auto summed = [&](std::initializer_list<const char*> spans) {
        std::vector<double> series;
        for (const RoundProfile& r : summary.traced) {
            double sum = 0.0;
            for (const char* s : spans) {
                const auto it = r.inclusive_s.find(s);
                if (it != r.inclusive_s.end()) sum += it->second;
            }
            series.push_back(sum);
        }
        return median(series);
    };
    put(outcome.metrics, "replay.cold_s", summed({"replay.open", "replay.run"}), "s");
    put(outcome.metrics, "analysis.shard_run_s.max", median_of(traced, &Round::shard_run_max_s),
        "s");
    put(outcome.metrics, "gateway.ring_occupancy_max",
        median_of(traced, &Round::ring_occupancy_max), "count");
    for (const char* count : {"replay.blocks", "gateway.offered", "gateway.dropped"}) {
        put(outcome.metrics, count, static_cast<double>(repeats.value(count)), "count");
    }
    put(outcome.metrics, "replay.tvcr_bytes",
        static_cast<double>(repeats.value("replay.tvcr_bytes")), "bytes");
    for (const auto& [name, metric] : outcome.named) {
        put(outcome.metrics, "e2e." + name, metric.value, metric.unit);
    }
    put(outcome.metrics, "mem.rss_file_mb", memory.peak_file_mb(), "MB");
    return outcome;
}

}  // namespace perfbench
