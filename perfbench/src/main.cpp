// tvacr_perfbench — the repository benchmark.
//
//   tvacr_perfbench --workload <audit_hour|table_sweep|capture_ingest|fleet_population>
//                   --seed N --seconds S --trace 0|1 [--workdir DIR] [--size tiny]
//
// Prints the per-path figures and one result record (host fingerprint,
// seed, input sizes, sample counts) for people, then, as the last line, the
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The metric
// catalogue below must match BENCHMARK.json (the smoke test checks it).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "analysis/json.hpp"
#include "common/parse.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

struct CatalogEntry {
    const char* name;
    const char* unit;
};

constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"peak_rss_anon_mb", "MB"},
};

// Per-layer metrics. Every workload reports all of them; a layer the
// workload does not exercise reads 0.
constexpr CatalogEntry kPerLayer[] = {
    {"core.testbed_build_s", "s"},
    {"core.experiment_run_s", "s"},
    {"core.trace_of_s", "s"},
    {"core.matrix.cell_s.p50", "s"},
    {"core.matrix.cell_s.max", "s"},
    {"core.matrix.queue_wait_s", "s"},
    {"core.matrix.busy_ratio", "ratio"},
    {"tv.captures", "count"},
    {"tv.batches_uploaded", "count"},
    {"fp.backend_batches", "count"},
    {"fp.backend_matches", "count"},
    {"fp.match_ratio", "ratio"},
    {"sim.packets", "count"},
    {"analysis.analyze_s", "s"},
    {"analysis.identify_s", "s"},
    {"analysis.pass1_s", "s"},
    {"analysis.finish_s", "s"},
    {"analysis.shard_run_s.max", "s"},
    {"geo.locate_s", "s"},
    {"net.read_s", "s"},
    {"replay.transcode_s", "s"},
    {"replay.tvcr_bytes", "bytes"},
    {"replay.cold_s", "s"},
    {"replay.blocks", "count"},
    {"gateway.poll_s", "s"},
    {"gateway.drain_s", "s"},
    {"gateway.snapshot_s", "s"},
    {"gateway.ring_occupancy_max", "count"},
    {"gateway.offered", "count"},
    {"gateway.dropped", "count"},
    {"fleet.run_s", "s"},
    {"fleet.shard_s.p50", "s"},
    {"fleet.shard_s.max", "s"},
    {"fleet.queue_wait_s", "s"},
    {"fleet.events", "count"},
    {"fleet.packets", "count"},
    {"mem.rss_file_mb", "MB"},
    {"bench.self_s", "s"},
    {"core.self_s", "s"},
    {"fp.self_s", "s"},
    {"analysis.self_s", "s"},
    {"geo.self_s", "s"},
    {"net.self_s", "s"},
    {"replay.self_s", "s"},
    {"gateway.self_s", "s"},
    {"fleet.self_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.self_sum_s", "s"},
    {"e2e.audit_samsung_s", "s"},
    {"e2e.audit_lg_s", "s"},
    {"e2e.sweep_s", "s"},
    {"e2e.analyze_pkts_per_s", "1/s"},
    {"e2e.transcode_mb_per_s", "MB/s"},
    {"e2e.replay_pkts_per_s", "1/s"},
    {"e2e.gateway_records_per_s", "1/s"},
    {"e2e.snapshot_p50_ms", "ms"},
    {"e2e.snapshot_p90_ms", "ms"},
    {"e2e.households_per_s", "1/s"},
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "tvacr_perfbench: %s\n"
                 "usage: tvacr_perfbench --workload <audit_hour|table_sweep|capture_ingest|"
                 "fleet_population> --seed N --seconds S --trace 0|1 [--workdir DIR] "
                 "[--size tiny]\n",
                 why);
    std::exit(2);
}

/// Checks the workload's metrics against the catalogue for its mode and
/// fills per-layer metrics it does not exercise with 0.
void conform(Outcome& outcome, bool trace) {
    std::map<std::string, Metric> metrics;
    if (!trace) {
        for (const auto& entry : kEndToEnd) {
            const auto it = outcome.metrics.find(entry.name);
            if (it == outcome.metrics.end() || !(it->second.value > 0.0)) {
                outcome.fail(std::string("end-to-end metric missing or not positive: ") +
                             entry.name);
                metrics[entry.name] = Metric{0.0, entry.unit};
            } else {
                metrics[entry.name] = it->second;
            }
        }
    } else {
        for (const auto& entry : kPerLayer) {
            const auto it = outcome.metrics.find(entry.name);
            metrics[entry.name] =
                it == outcome.metrics.end() ? Metric{0.0, entry.unit} : it->second;
        }
    }
    for (const auto& [name, metric] : outcome.metrics) {
        if (metrics.count(name) == 0) outcome.fail("metric outside the catalogue: " + name);
    }
    outcome.metrics = std::move(metrics);
}

std::string record_json(const std::string& workload, const RunConfig& config,
                        const Outcome& outcome) {
    tvacr::analysis::JsonWriter json;
    json.begin_object();
    json.key("record").begin_object();
    json.key("workload").value(workload);
    json.key("seed").value(config.seed);
    json.key("seconds").value(config.seconds);
    json.key("trace").value(config.trace);
    json.key("host").begin_object();
    json.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.key("compiler").value(PERFBENCH_COMPILER);
    json.key("build_type").value(PERFBENCH_BUILD_TYPE);
    json.end_object();
    json.key("inputs").begin_object();
    for (const auto& [key, value] : outcome.inputs) json.key(key).value(value);
    json.end_object();
    json.key("samples").begin_object();
    for (const auto& [key, value] : outcome.samples) json.key(key).value(value);
    json.end_object();
    json.key("round_spread").begin_object();
    for (const auto& [key, value] : outcome.round_spread) json.key(key).value(value);
    json.end_object();
    json.key("named").begin_object();
    for (const auto& [key, metric] : outcome.named) {
        json.key(key).begin_object();
        json.key("value").value(metric.value);
        json.key("unit").value(metric.unit);
        json.end_object();
    }
    json.end_object();
    json.end_object();
    json.end_object();
    return std::move(json).take();
}

std::string result_json(const Outcome& outcome) {
    std::string out = "{\"correct\": ";
    out += outcome.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(outcome.attempted);
    out += ", \"failed\": " + std::to_string(outcome.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : outcome.metrics) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + format_number(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
    }
    out += "}}";
    return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    using tvacr::common::parse_flag_int;
    using tvacr::common::parse_flag_u64;
    RunConfig config;
    std::string workload;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const char* value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            config.seed = parse_flag_u64("--seed", value);
            have_seed = true;
        } else if (flag == "--seconds") {
            config.seconds = static_cast<double>(parse_flag_int("--seconds", value, 0, 3600));
            have_seconds = true;
        } else if (flag == "--trace") {
            config.trace = parse_flag_int("--trace", value, 0, 1) == 1;
            have_trace = true;
        } else if (flag == "--workdir") {
            config.workdir = value;
        } else if (flag == "--size") {
            if (std::strcmp(value, "tiny") != 0) usage("--size accepts only tiny");
            config.tiny = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace) {
        usage("--seed, --seconds and --trace are required");
    }
    // Set-up is sampled in fresh processes only where setup_s is reported.
    if (config.trace) config.setup_forks = 0;

    Outcome outcome;
    if (workload == "audit_hour") {
        outcome = run_audit_hour(config);
    } else if (workload == "table_sweep") {
        outcome = run_table_sweep(config);
    } else if (workload == "capture_ingest") {
        outcome = run_capture_ingest(config);
    } else if (workload == "fleet_population") {
        outcome = run_fleet_population(config);
    } else {
        usage(("unknown workload '" + workload + "'").c_str());
    }
    conform(outcome, config.trace);
    if (outcome.attempted == 0) outcome.check(false, "no operation ran");

    for (const auto& [name, metric] : outcome.named) {
        std::printf("%-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    }
    for (const auto& why : outcome.failures) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
    std::printf("%s\n", record_json(workload, config, outcome).c_str());
    std::printf("%s\n", result_json(outcome).c_str());
    return 0;
}
