// audit_hour: core::AuditPipeline::run for Samsung/UK/Linear and
// LG/UK/Linear, 60 simulated minutes each, jobs=2 (the opted-in and
// opted-out runs overlap).
//
// Why: it is the only workload that runs identification (periodicity) and
// geolocation, and its two audits are bound by different layers — Samsung
// by the testbed's content-library build, LG by client fingerprinting — so
// a fix to one layer shows on one audit and not the other.
#include <algorithm>
#include <optional>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/audit.hpp"
#include "geo/ipdb.hpp"
#include "geo/location.hpp"
#include "geo/ripe_ipmap.hpp"
#include "geo/traceroute.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tvacr;

namespace {

core::AuditConfig audit_config(tv::Brand brand, std::uint64_t seed, SimTime duration) {
    core::AuditConfig config;
    config.brand = brand;
    config.country = tv::Country::kUk;
    config.scenario = tv::Scenario::kLinear;
    config.duration = duration;
    config.seed = seed;
    config.jobs = 2;
    return config;
}

/// The bytes that must repeat exactly and match between traced and
/// untraced runs: the rendered report plus the merged metrics.
std::uint64_t report_digest(const core::AuditReport& report) {
    return fnv1a(report.metrics.to_json(), fnv1a(report.render()));
}

/// Per-audit deterministic counts (identical on every repeat).
struct AuditCounts {
    std::uint64_t captures = 0;
    std::uint64_t batches_uploaded = 0;
    std::uint64_t backend_batches = 0;
    std::uint64_t backend_matches = 0;
    std::uint64_t packets = 0;

    void add(const core::ExperimentResult& result) {
        captures += result.captures_taken;
        batches_uploaded += result.batches_uploaded;
        backend_batches += result.backend_batches;
        backend_matches += result.backend_matches;
        packets += result.capture.size();
    }
};

/// A copy of AuditPipeline::run, step for step, with a span around each
/// call into a layer. Its report must be byte-identical to the pipeline's,
/// and its wall time within kCopyTolerance of the pipeline's (check_copy).
core::AuditReport traced_audit(const core::AuditConfig& config, Tracer* tracer,
                               AuditCounts& counts) {
    using core::ExperimentResult;
    using core::ExperimentRunner;
    using core::Testbed;

    core::AuditReport report;
    report.config = config;
    core::ExperimentSpec opted_in;
    opted_in.brand = config.brand;
    opted_in.country = config.country;
    opted_in.scenario = config.scenario;
    opted_in.phase = tv::Phase::kLInOIn;
    opted_in.duration = config.duration;
    opted_in.seed = config.seed;
    core::ExperimentSpec opted_out = opted_in;
    opted_out.phase = tv::Phase::kLInOOut;

    const int audit_span = current_span();
    common::ThreadPool pool(1);
    auto out_future = pool.submit([opted_out, tracer, audit_span]() {
        Span cell(tracer, "audit.opted_out", "bench", audit_span);
        std::optional<Testbed> bed;
        {
            Span span(tracer, "core.testbed", "core");
            bed.emplace(ExperimentRunner::testbed_config(opted_out));
        }
        ExperimentResult result;
        {
            Span span(tracer, "core.run_on", "core");
            result = ExperimentRunner::run_on(*bed, opted_out);
        }
        Span span(tracer, "core.testbed_free", "core");
        bed.reset();
        return result;
    });

    std::optional<Testbed> bed;
    {
        Span span(tracer, "core.testbed", "core");
        bed.emplace(ExperimentRunner::testbed_config(opted_in));
    }
    ExperimentResult in_result;
    {
        Span span(tracer, "core.run_on", "core");
        in_result = ExperimentRunner::run_on(*bed, opted_in);
    }
    const ExperimentResult out_result = out_future.get();
    counts.add(in_result);
    counts.add(out_result);

    std::optional<analysis::CaptureAnalyzer> in_analysis;
    std::optional<analysis::CaptureAnalyzer> out_analysis;
    {
        Span span(tracer, "analysis.analyze", "analysis");
        in_analysis.emplace(in_result.analyze());
        out_analysis.emplace(out_result.analyze());
    }
    {
        Span span(tracer, "analysis.identify", "analysis");
        const analysis::AcrDomainIdentifier identifier;
        report.findings = identifier.identify(*in_analysis, &*out_analysis, config.duration);
    }
    for (const auto& finding : report.findings) {
        if (finding.verdict) report.confirmed_acr_domains.push_back(finding.domain);
    }
    report.true_acr_domains = in_result.true_acr_domains;
    report.backend_matches = in_result.backend_matches;
    report.metrics.merge(in_result.metrics);
    report.metrics.merge(out_result.metrics);
    for (const auto& domain : in_result.true_acr_domains) {
        if (const auto* stats = in_analysis->find(domain)) {
            report.opted_in_acr_kb += stats->kilobytes();
        }
        if (const auto* stats = out_analysis->find(domain)) {
            report.opted_out_acr_kb += stats->kilobytes();
        }
    }

    {
        Span span(tracer, "geo.locate", "geo");
        const auto& truth = bed->ground_truth();
        const auto maxmind = geo::derive_database("maxmind-like", truth, 0.25,
                                                  derive_seed(config.seed, 0x3A3));
        const auto ip2location = geo::derive_database("ip2location-like", truth, 0.25,
                                                      derive_seed(config.seed, 0x1B2));
        std::vector<const geo::City*> probes;
        for (const char* name : {"London", "Amsterdam", "Frankfurt", "Dublin", "New York",
                                 "Ashburn", "Chicago", "Dallas", "San Jose", "Seattle", "Tokyo",
                                 "Sydney"}) {
            probes.push_back(geo::find_city(name));
        }
        const geo::RipeIpMap ipmap(truth, probes, derive_seed(config.seed, 0x1FA));
        const geo::Traceroute traceroute(truth, derive_seed(config.seed, 0x7));
        const geo::Geolocator locator(maxmind, ip2location, ipmap, traceroute, bed->vantage());
        for (const auto& domain : report.confirmed_acr_domains) {
            const auto address = bed->address_of(domain);
            if (!address) continue;
            report.geolocation.push_back(core::DomainGeolocation{domain, locator.locate(*address)});
        }
    }
    {
        Span span(tracer, "fp.segments", "fp");
        report.audience_segments = bed->backend().profiler().segments(bed->tv().device_id());
    }
    Span span(tracer, "core.testbed_free", "core");
    bed.reset();
    return report;
}

/// Gates one audit: identification must confirm exactly the ground-truth
/// ACR domains, and the report must repeat byte for byte.
bool audit_ok(const core::AuditReport& report, std::uint64_t digest, RepeatCheck& repeats,
              const std::string& brand, std::string& why) {
    auto confirmed = report.confirmed_acr_domains;
    auto truth = report.true_acr_domains;
    std::sort(confirmed.begin(), confirmed.end());
    std::sort(truth.begin(), truth.end());
    bool ok = true;
    if (confirmed != truth || truth.empty()) {
        why += brand + ": confirmed ACR domains differ from ground truth; ";
        ok = false;
    }
    const auto& m = report.metrics;
    ok = repeats.same(brand + ".report_digest", digest, why) && ok;
    ok = repeats.same(brand + ".tv.captures", m.counter_value("acr.captures"), why) && ok;
    ok = repeats.same(brand + ".fp.backend_batches", m.counter_value("acr.backend.batches"), why) &&
         ok;
    ok = repeats.same(brand + ".fp.backend_matches", m.counter_value("acr.backend.matches"), why) &&
         ok;
    return ok;
}

const char* brand_key(tv::Brand brand) { return brand == tv::Brand::kSamsung ? "samsung" : "lg"; }

}  // namespace

Outcome run_audit_hour(const RunConfig& config) {
    Outcome outcome;
    const SimTime duration = config.tiny ? SimTime::minutes(2) : SimTime::hours(1);
    const std::vector<tv::Brand> brands = {tv::Brand::kSamsung, tv::Brand::kLg};
    outcome.inputs["brands"] = "samsung,lg";
    outcome.inputs["country"] = "uk";
    outcome.inputs["scenario"] = "linear";
    outcome.inputs["simulated_minutes"] = std::to_string(duration.as_micros() / 60'000'000);
    outcome.inputs["jobs"] = "2";

    // Set-up: a warm-up audit at one simulated minute (pool spawn, testbed
    // and library build, every code path of the audit touched once).
    const auto setup = [&]() {
        (void)core::AuditPipeline::run(audit_config(tv::Brand::kSamsung, config.seed,
                                                    SimTime::minutes(1)));
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
    std::map<std::string, std::vector<double>> audit_s;
    std::map<std::string, std::uint64_t> untraced_digest;

    const auto untraced_round = [&]() {
        for (const tv::Brand brand : brands) {
            const std::string key = brand_key(brand);
            const double t0 = now_s();
            const core::AuditReport report =
                core::AuditPipeline::run(audit_config(brand, config.seed, duration));
            audit_s[key].push_back(now_s() - t0);
            memory.sample();
            const std::uint64_t digest = report_digest(report);
            untraced_digest[key] = digest;
            std::string why;
            outcome.check(audit_ok(report, digest, repeats, key, why), "audit " + key + ": " + why);
        }
    };

    TraceSummary summary;
    Tracer tracer;
    std::map<std::string, std::vector<double>> counts;
    std::map<std::string, std::vector<double>> traced_audit_s;
    const double start = now_s();
    while (keep_going(start, config.seconds, rounds.wall.size())) {
        rounds.measure(untraced_round);
        summary.untraced_wall_s.push_back(rounds.wall.back());
        if (!config.trace) continue;

        AuditCounts round_counts;
        int root = -1;
        {
            Span round(&tracer, "round", "bench");
            root = round.id();
            for (const tv::Brand brand : brands) {
                const std::string key = brand_key(brand);
                Span audit(&tracer, std::string("audit.") + key, "bench");
                const double t0 = now_s();
                const core::AuditReport report =
                    traced_audit(audit_config(brand, config.seed, duration), &tracer, round_counts);
                traced_audit_s[key].push_back(now_s() - t0);
                const bool same = report_digest(report) == untraced_digest[key];
                outcome.check(same, "traced audit " + key + " differs from the untraced audit");
            }
        }
        summary.traced.push_back(profile_round(tracer.spans(), root));
        counts["tv.captures"].push_back(static_cast<double>(round_counts.captures));
        counts["tv.batches_uploaded"].push_back(static_cast<double>(round_counts.batches_uploaded));
        counts["fp.backend_batches"].push_back(static_cast<double>(round_counts.backend_batches));
        counts["fp.backend_matches"].push_back(static_cast<double>(round_counts.backend_matches));
        counts["sim.packets"].push_back(static_cast<double>(round_counts.packets));
        memory.sample();
    }

    outcome.samples["rounds"] = rounds.wall.size();
    outcome.samples["audits_per_brand"] = audit_s["samsung"].size();
    outcome.samples["setup"] = setup_s.size();
    put(outcome.named, "audit_samsung_s", median(audit_s["samsung"]), "s");
    put(outcome.named, "audit_lg_s", median(audit_s["lg"]), "s");
    if (!config.trace) {
        report_end_to_end(outcome, setup_s, rounds);
        return outcome;
    }

    outcome.samples["traced_rounds"] = summary.traced.size();
    for (const auto& [key, series] : traced_audit_s) {
        check_copy(outcome, "audit " + key, median(series), median(audit_s[key]));
    }
    report_trace(outcome, summary,
                 {{"core.testbed", "core.testbed_build_s"},
                  {"core.run_on", "core.experiment_run_s"},
                  {"analysis.analyze", "analysis.analyze_s"},
                  {"analysis.identify", "analysis.identify_s"},
                  {"geo.locate", "geo.locate_s"}});
    for (const auto& [name, series] : counts) {
        put(outcome.metrics, name, median(series), "count");
    }
    const double batches = median(counts["fp.backend_batches"]);
    put(outcome.metrics, "fp.match_ratio",
        batches > 0 ? median(counts["fp.backend_matches"]) / batches : 0.0, "ratio");
    put(outcome.metrics, "e2e.audit_samsung_s", outcome.named["audit_samsung_s"].value, "s");
    put(outcome.metrics, "e2e.audit_lg_s", outcome.named["audit_lg_s"].value, "s");
    put(outcome.metrics, "mem.rss_file_mb", memory.peak_file_mb(), "MB");
    return outcome;
}

}  // namespace perfbench
