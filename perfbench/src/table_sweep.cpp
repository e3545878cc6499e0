// table_sweep: core::MatrixRunner::run over the paper's Table 2 matrix —
// UK x LIn-OIn x 6 scenarios x 2 brands = 12 cells, 60 simulated minutes
// each, jobs=4.
//
// Why: it is the paper's tables. Every cell rebuilds the same content
// library, and the makespan is set by the LG straggler cells, so sharing
// or speeding the library build and client fingerprinting show here far
// more than on audit_hour; no identification runs here.
#include <cstdio>
#include <optional>

#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/matrix_runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tvacr;

namespace {

constexpr int kJobs = 4;

/// Everything a cell's ScenarioTrace determines in the paper's tables.
std::uint64_t cell_digest(const core::ScenarioTrace& trace) {
    std::string text = trace.spec.name();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.17g %zu\n", trace.total_acr_kb, trace.acr_events.size());
    text += buf;
    for (const auto& [domain, kb] : trace.kb_per_domain) {
        std::snprintf(buf, sizeof(buf), " %.17g\n", kb);
        text += domain + buf;
    }
    for (const auto& [domain, events] : trace.per_domain) {
        text += domain + " " + std::to_string(events.size()) + "\n";
    }
    return fnv1a(trace.metrics.to_json(), fnv1a(text));
}

struct CellResult {
    core::ScenarioTrace trace;
    std::uint64_t captures = 0;
    std::uint64_t batches_uploaded = 0;
    std::uint64_t backend_batches = 0;
    std::uint64_t backend_matches = 0;
    std::uint64_t packets = 0;
};

/// A copy of MatrixRunner::run_traces, step for step, with spans around the
/// testbed build, the run and the trace reduction of every cell. Its summed
/// cell time must stay within kCopyTolerance of the runner's own (from
/// MatrixRunner::set_profile; check_copy).
std::vector<CellResult> traced_sweep(const std::vector<core::ExperimentSpec>& specs,
                                     Tracer* tracer) {
    const int sweep_span = current_span();
    common::ThreadPool pool(std::min<std::size_t>(kJobs, specs.size()));
    std::vector<std::future<CellResult>> futures;
    for (const auto& spec : specs) {
        futures.push_back(pool.submit([spec, tracer, sweep_span]() {
            Span cell(tracer, "cell", "bench", sweep_span);
            std::optional<core::Testbed> bed;
            {
                Span span(tracer, "core.testbed", "core");
                bed.emplace(core::ExperimentRunner::testbed_config(spec));
            }
            std::optional<core::ExperimentResult> result;
            {
                Span span(tracer, "core.run_on", "core");
                result.emplace(core::ExperimentRunner::run_on(*bed, spec));
            }
            {
                Span span(tracer, "core.testbed_free", "core");
                bed.reset();
            }
            CellResult out;
            out.captures = result->captures_taken;
            out.batches_uploaded = result->batches_uploaded;
            out.backend_batches = result->backend_batches;
            out.backend_matches = result->backend_matches;
            out.packets = result->capture.size();
            Span span(tracer, "core.trace_of", "core");
            out.trace = core::trace_of(*result);
            result.reset();
            return out;
        }));
    }
    std::vector<CellResult> cells;
    for (auto& future : futures) cells.push_back(future.get());
    return cells;
}

}  // namespace

Outcome run_table_sweep(const RunConfig& config) {
    Outcome outcome;
    core::MatrixSpec matrix;
    matrix.duration = config.tiny ? SimTime::minutes(2) : SimTime::hours(1);
    matrix.seed = config.seed;
    const std::vector<core::ExperimentSpec> specs = core::MatrixRunner::expand(matrix);
    outcome.inputs["cells"] = std::to_string(specs.size());
    outcome.inputs["matrix"] = "uk x LIn-OIn x 6 scenarios x {lg,samsung}";
    outcome.inputs["simulated_minutes"] = std::to_string(matrix.duration.as_micros() / 60'000'000);
    outcome.inputs["jobs"] = std::to_string(kJobs);

    // Set-up: the runner plus a warm-up cell at one simulated minute.
    const auto setup = [&]() {
        core::ExperimentSpec warm = specs.front();
        warm.duration = SimTime::minutes(1);
        (void)core::trace_of(core::ExperimentRunner::run(warm));
    };
    std::vector<double> setup_s = time_setup_in_children(config.setup_forks, setup);
    if (static_cast<int>(setup_s.size()) != config.setup_forks) outcome.fail("set-up child failed");
    const double setup_start = now_s();
    core::MatrixRunner runner(kJobs);
    setup();
    setup_s.push_back(now_s() - setup_start);

    MemSampler memory;
    RepeatCheck repeats;
    RoundTimes rounds(memory);
    std::vector<std::uint64_t> digests(specs.size(), 0);
    TraceSummary summary;
    Tracer tracer;
    std::map<std::string, std::vector<double>> layer;
    std::vector<double> program_cells_s;  // summed cell run time, from the runner's profile

    const double start = now_s();
    while (keep_going(start, config.seconds, rounds.wall.size())) {
        obs::Scope profile;
        runner.set_profile(config.trace ? &profile : nullptr);
        std::vector<core::ScenarioTrace> traces;
        rounds.measure([&]() { traces = runner.run(matrix); });
        runner.set_profile(nullptr);
        memory.sample();
        summary.untraced_wall_s.push_back(rounds.wall.back());
        for (std::size_t i = 0; i < traces.size(); ++i) {
            digests[i] = cell_digest(traces[i]);
            std::string why;
            const bool ok = repeats.same(specs[i].name(), digests[i], why) &&
                            traces[i].spec.name() == specs[i].name();
            outcome.check(ok, "cell " + specs[i].name() + ": " + why);
        }
        traces.clear();
        if (!config.trace) continue;

        // Matrix profile of the untraced sweep: per-cell run and queue wait.
        std::vector<double> cell_s;
        double queue_wait_s = 0.0;
        for (const auto& event : profile.trace.events()) {
            cell_s.push_back(static_cast<double>(event.dur_us) * 1e-6);
            for (const auto& [key, value] : event.args) {
                if (key == "queue_wait_us") queue_wait_s += std::stod(value) * 1e-6;
            }
        }
        double busy = 0.0;
        for (const double s : cell_s) busy += s;
        layer["core.matrix.cell_s.p50"].push_back(median(cell_s));
        layer["core.matrix.cell_s.max"].push_back(percentile(cell_s, 1.0));
        layer["core.matrix.queue_wait_s"].push_back(
            cell_s.empty() ? 0.0 : queue_wait_s / static_cast<double>(cell_s.size()));
        layer["core.matrix.busy_ratio"].push_back(busy / (kJobs * rounds.wall.back()));
        program_cells_s.push_back(busy);

        int root = -1;
        std::vector<CellResult> cells;
        {
            Span round(&tracer, "round", "bench");
            root = round.id();
            cells = traced_sweep(specs, &tracer);
        }
        memory.sample();
        summary.traced.push_back(profile_round(tracer.spans(), root));
        std::map<std::string, double> totals;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            outcome.check(cell_digest(cells[i].trace) == digests[i],
                          "traced cell " + specs[i].name() + " differs from the untraced sweep");
            totals["tv.captures"] += static_cast<double>(cells[i].captures);
            totals["tv.batches_uploaded"] += static_cast<double>(cells[i].batches_uploaded);
            totals["fp.backend_batches"] += static_cast<double>(cells[i].backend_batches);
            totals["fp.backend_matches"] += static_cast<double>(cells[i].backend_matches);
            totals["sim.packets"] += static_cast<double>(cells[i].packets);
        }
        for (const auto& [name, value] : totals) layer[name].push_back(value);
    }

    outcome.samples["sweeps"] = rounds.wall.size();
    outcome.samples["cells"] = rounds.wall.size() * specs.size();
    outcome.samples["setup"] = setup_s.size();
    put(outcome.named, "sweep_s", median(rounds.wall), "s");
    if (!config.trace) {
        report_end_to_end(outcome, setup_s, rounds);
        return outcome;
    }

    outcome.samples["traced_rounds"] = summary.traced.size();
    std::vector<double> copy_cells_s;
    for (const RoundProfile& r : summary.traced) {
        const auto it = r.inclusive_s.find("cell");
        copy_cells_s.push_back(it == r.inclusive_s.end() ? 0.0 : it->second);
    }
    check_copy(outcome, "sweep cells", median(copy_cells_s), median(program_cells_s));
    report_trace(outcome, summary,
                 {{"core.testbed", "core.testbed_build_s"},
                  {"core.run_on", "core.experiment_run_s"},
                  {"core.trace_of", "core.trace_of_s"}});
    for (const auto& [name, series] : layer) {
        const bool count = name.rfind("core.matrix.", 0) != 0;
        const bool ratio = name == "core.matrix.busy_ratio";
        put(outcome.metrics, name, median(series), count ? "count" : ratio ? "ratio" : "s");
    }
    const double batches = median(layer["fp.backend_batches"]);
    put(outcome.metrics, "fp.match_ratio",
        batches > 0 ? median(layer["fp.backend_matches"]) / batches : 0.0, "ratio");
    put(outcome.metrics, "e2e.sweep_s", outcome.named["sweep_s"].value, "s");
    put(outcome.metrics, "mem.rss_file_mb", memory.peak_file_mb(), "MB");
    return outcome;
}

}  // namespace perfbench
