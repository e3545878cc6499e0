// The four perfbench workloads. Each runs in its own process, makes its
// inputs from the seed, measures for the requested number of seconds and
// gates every operation's output. With trace off it reports the end-to-end
// metrics; with trace on it alternates untraced rounds with rounds whose
// calls into each layer are wrapped in spans, and reports per-layer numbers
// plus the tracing overhead (traced minus untraced round wall).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Smoke-test sizes (seconds of work instead of minutes); never used by
    /// the benchmark proper.
    bool tiny = false;
    /// Scratch directory for generated inputs and written outputs.
    std::string workdir = ".";
    /// Number of fresh child processes set-up is additionally timed in.
    int setup_forks = 4;
};

[[nodiscard]] Outcome run_audit_hour(const RunConfig& config);
[[nodiscard]] Outcome run_table_sweep(const RunConfig& config);
[[nodiscard]] Outcome run_capture_ingest(const RunConfig& config);
[[nodiscard]] Outcome run_fleet_population(const RunConfig& config);

// ---- shared reporting ----------------------------------------------------

/// Wall time, CPU time and RssAnon maximum of each measured round.
struct RoundTimes {
    explicit RoundTimes(MemSampler& sampler) : memory(sampler) {}

    MemSampler& memory;
    std::vector<double> wall;
    std::vector<double> cpu;

    template <typename F>
    void measure(F&& round) {
        memory.begin_round();
        const double w0 = now_s();
        const double c0 = cpu_s();
        round();
        cpu.push_back(cpu_s() - c0);
        wall.push_back(now_s() - w0);
        memory.end_round();
    }
};

/// Fills the end-to-end metrics every workload reports with trace off.
void report_end_to_end(Outcome& outcome, const std::vector<double>& setup_s,
                       const RoundTimes& rounds);

/// Medians over traced rounds of every layer's self time, every span's
/// inclusive time under `timed` (span name -> metric name), and the
/// tracing overhead against the untraced rounds of the same process.
struct TraceSummary {
    std::vector<RoundProfile> traced;
    std::vector<double> untraced_wall_s;
};
void report_trace(Outcome& outcome, const TraceSummary& summary,
                  const std::vector<std::pair<std::string, std::string>>& timed);

/// The traced audit and sweep run the benchmark's own copies of
/// AuditPipeline::run and MatrixRunner::run_traces with spans added. A copy
/// that has fallen behind the program (say, the program starts sharing its
/// content library) still gives equal outputs, so its cost is held to the
/// program's too: a traced time further than this share from the untraced
/// time of the same work fails an operation.
constexpr double kCopyTolerance = 0.25;

/// Fails one operation unless the copy's time is within kCopyTolerance of
/// the program's.
void check_copy(Outcome& outcome, const std::string& what, double copy_s, double program_s);

/// Median of a per-round series as a metric.
void put(std::map<std::string, Metric>& into, const std::string& name, double value,
         const std::string& unit);

/// Runs rounds until `seconds` have passed since `start` (at least one).
[[nodiscard]] inline bool keep_going(double start, double seconds, std::size_t done) {
    return done == 0 || now_s() - start < seconds;
}

}  // namespace perfbench
