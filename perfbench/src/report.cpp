#include <cmath>
#include <cstdio>
#include <set>

#include "workloads.hpp"

namespace perfbench {

void put(std::map<std::string, Metric>& into, const std::string& name, double value,
         const std::string& unit) {
    into[name] = Metric{value, unit};
}

void check_copy(Outcome& outcome, const std::string& what, double copy_s, double program_s) {
    const bool ok = program_s > 0 && std::abs(copy_s / program_s - 1.0) <= kCopyTolerance;
    char why[192];
    std::snprintf(why, sizeof(why),
                  "%s: the benchmark's traced copy took %.4g s, the program %.4g s; the copy "
                  "no longer does what the program does",
                  what.c_str(), copy_s, program_s);
    outcome.check(ok, why);
}

void report_end_to_end(Outcome& outcome, const std::vector<double>& setup_s,
                       const RoundTimes& rounds) {
    const std::vector<double> peaks = rounds.memory.round_peak_anon_mb();
    put(outcome.metrics, "setup_s", median(setup_s), "s");
    put(outcome.metrics, "wall_s", median(rounds.wall), "s");
    put(outcome.metrics, "cpu_s", median(rounds.cpu), "s");
    put(outcome.metrics, "peak_rss_anon_mb", median(peaks), "MB");
    for (const auto& [name, series] : {std::pair{"wall_s", &rounds.wall},
                                       {"cpu_s", &rounds.cpu},
                                       {"peak_rss_anon_mb", &peaks}}) {
        const Quartiles q = quartiles(*series);
        outcome.round_spread[name] = q.q2 > 0 ? (q.q3 - q.q1) / q.q2 : 0.0;
    }
}

void report_trace(Outcome& outcome, const TraceSummary& summary,
                  const std::vector<std::pair<std::string, std::string>>& timed) {
    const auto over_rounds = [&summary](const auto& pick) {
        std::vector<double> series;
        for (const RoundProfile& round : summary.traced) series.push_back(pick(round));
        return median(series);
    };
    const auto lookup = [](const std::map<std::string, double>& map, const std::string& key) {
        const auto it = map.find(key);
        return it == map.end() ? 0.0 : it->second;
    };

    std::set<std::string> layers;
    for (const RoundProfile& round : summary.traced) {
        for (const auto& [layer, seconds] : round.self_s) layers.insert(layer);
    }
    for (const std::string& layer : layers) {
        put(outcome.metrics, layer + ".self_s",
            over_rounds([&](const RoundProfile& r) { return lookup(r.self_s, layer); }), "s");
    }
    for (const auto& [span, metric] : timed) {
        put(outcome.metrics, metric,
            over_rounds([&](const RoundProfile& r) { return lookup(r.inclusive_s, span); }), "s");
    }
    const double traced = over_rounds([](const RoundProfile& r) { return r.wall_s; });
    const double untraced = median(summary.untraced_wall_s);
    put(outcome.metrics, "trace.wall_s", traced, "s");
    put(outcome.metrics, "trace.untraced_wall_s", untraced, "s");
    put(outcome.metrics, "trace.overhead_s", traced - untraced, "s");
    put(outcome.metrics, "trace.overhead_ratio", untraced > 0 ? (traced - untraced) / untraced : 0,
        "ratio");
    put(outcome.metrics, "trace.self_sum_s", over_rounds([](const RoundProfile& r) {
            double sum = 0.0;
            for (const auto& [layer, seconds] : r.self_s) sum += seconds;
            return sum;
        }),
        "s");
}

}  // namespace perfbench
