// fleet_population: fleet::FleetRunner on canonical_population_spec(),
// 100k households, a pool of 4 and a fixed 16 shards.
//
// Why: src/fleet (sampler, closed-form traffic fold, shard merge) is touched
// by no other workload. Timing is repeated in-process; one-shot timing of
// this cell has been seen to vary by more than 3x.
#include "fleet/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tvacr;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kShards = 16;

fleet::FleetOptions fleet_options(std::uint64_t households, std::uint64_t seed,
                                  common::ThreadPool* pool) {
    fleet::FleetOptions options;
    options.households = households;
    options.seed = seed;
    options.shards = kShards;
    options.pool = pool;
    return options;
}

}  // namespace

Outcome run_fleet_population(const RunConfig& config) {
    Outcome outcome;
    const std::uint64_t households = config.tiny ? 2'000 : 100'000;
    const fleet::FleetRunner runner(fleet::canonical_population_spec());
    outcome.inputs["households"] = std::to_string(households);
    outcome.inputs["spec"] = runner.spec().to_string();
    outcome.inputs["pool_workers"] = std::to_string(kWorkers);
    outcome.inputs["shards"] = std::to_string(kShards);

    // Set-up: the pool of 4 plus a warm-up population of 30% of the
    // households. A shorter warm-up (10%, about 0.16 s) drifted twice as much
    // as the rounds themselves when the host's load changed.
    std::optional<ObservedPool> pool;
    std::uint64_t expected_tasks = 0;
    const auto setup = [&]() {
        pool.emplace(kWorkers);
        (void)runner.run(fleet_options(households * 3 / 10, config.seed, &pool->pool()));
        expected_tasks = kShards;
    };
    std::vector<double> setup_s = time_setup_in_children(config.setup_forks, setup);
    if (static_cast<int>(setup_s.size()) != config.setup_forks) outcome.fail("set-up child failed");
    {
        const double t0 = now_s();
        setup();
        setup_s.push_back(now_s() - t0);
    }
    if (!pool->wait_for(expected_tasks)) outcome.fail("warm-up shard tasks were not all observed");
    (void)pool->take();

    MemSampler memory;
    RepeatCheck repeats;
    RoundTimes rounds(memory);
    TraceSummary summary;
    Tracer tracer;
    std::string reference_json;
    std::map<std::string, std::vector<double>> layer;

    // One population run; with a tracer, its shard tasks become child spans.
    const auto one_run = [&](Tracer* t) {
        Result<fleet::FleetAggregates> result = make_error("not run");
        std::vector<common::ThreadPool::TaskTiming> timings;
        {
            Span span(t, "fleet.run", "fleet");
            result = runner.run(fleet_options(households, config.seed, &pool->pool()));
            expected_tasks += kShards;
            const bool observed = pool->wait_for(expected_tasks);
            timings = pool->take();
            if (!observed) outcome.fail("shard tasks were not all observed");
            for (const auto& timing : timings) {
                if (t != nullptr) {
                    t->add_interval("fleet.shard", "fleet", span.id(),
                                    pool->epoch_ns() + timing.start_ns,
                                    pool->epoch_ns() + timing.finish_ns, 1000 + timing.worker);
                }
            }
        }
        memory.sample();
        std::string why;
        bool ok = result.ok();
        if (ok) {
            const auto& agg = result.value();
            std::string json = agg.to_json();
            if (reference_json.empty()) reference_json = json;
            ok = json == reference_json && agg.households == households;
            if (!ok) why += "aggregate JSON differs between repeats; ";
            ok = repeats.same("fleet.events", agg.events, why) && ok;
            ok = repeats.same("fleet.packets", agg.packets, why) && ok;
        } else {
            why += result.error().message;
        }
        outcome.check(ok, "population run: " + why);
        return timings;
    };

    const double start = now_s();
    while (keep_going(start, config.seconds, rounds.wall.size())) {
        rounds.measure([&]() { (void)one_run(nullptr); });
        summary.untraced_wall_s.push_back(rounds.wall.back());
        if (!config.trace) continue;
        int root = -1;
        std::vector<common::ThreadPool::TaskTiming> timings;
        {
            Span span(&tracer, "round", "bench");
            root = span.id();
            timings = one_run(&tracer);
        }
        summary.traced.push_back(profile_round(tracer.spans(), root));
        std::vector<double> shard_s;
        double queue_wait_s = 0.0;
        for (const auto& timing : timings) {
            shard_s.push_back(static_cast<double>(timing.run_ns()) * 1e-9);
            queue_wait_s += static_cast<double>(timing.queue_wait_ns()) * 1e-9;
        }
        layer["fleet.shard_s.p50"].push_back(median(shard_s));
        layer["fleet.shard_s.max"].push_back(percentile(shard_s, 1.0));
        layer["fleet.queue_wait_s"].push_back(
            shard_s.empty() ? 0.0 : queue_wait_s / static_cast<double>(shard_s.size()));
    }

    // Untimed: the same population on one worker (same shards) must render
    // byte-identical aggregates.
    {
        const auto serial = runner.run(fleet_options(households, config.seed, nullptr));
        outcome.check(serial.ok() && serial.value().to_json() == reference_json,
                      "fleet JSON on 1 worker differs from 4 workers");
    }

    const double households_per_s = static_cast<double>(households) / median(rounds.wall);
    put(outcome.named, "households_per_s", households_per_s, "1/s");
    outcome.samples["population_runs"] = rounds.wall.size();
    outcome.samples["setup"] = setup_s.size();
    if (!config.trace) {
        report_end_to_end(outcome, setup_s, rounds);
        return outcome;
    }
    outcome.samples["traced_rounds"] = summary.traced.size();
    report_trace(outcome, summary, {{"fleet.run", "fleet.run_s"}});
    for (const auto& [name, series] : layer) put(outcome.metrics, name, median(series), "s");
    for (const char* count : {"fleet.events", "fleet.packets"}) {
        put(outcome.metrics, count, static_cast<double>(repeats.value(count)), "count");
    }
    put(outcome.metrics, "e2e.households_per_s", households_per_s, "1/s");
    put(outcome.metrics, "mem.rss_file_mb", memory.peak_file_mb(), "MB");
    return outcome;
}

}  // namespace perfbench
