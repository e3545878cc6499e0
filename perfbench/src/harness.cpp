#include "harness.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

namespace perfbench {

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
    if (values.empty()) return {};
    if (values.size() == 1) return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    // statistics.quantiles, method="exclusive": m = n + 1, cut i of 4 at
    // position i*m/4 (1-based), interpolated between neighbours.
    const auto n = static_cast<std::int64_t>(values.size());
    const std::int64_t m = n + 1;
    double cuts[3];
    for (std::int64_t i = 1; i <= 3; ++i) {
        const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
        const std::int64_t delta = i * m - j * 4;
        cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                       values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                      4.0;
    }
    return {cuts[0], cuts[1], cuts[2]};
}

bool percentile_supported(std::size_t samples, double q, std::size_t tail) {
    // n * (1 - q) >= tail, in integer percent to dodge rounding at the edge.
    const auto beyond_pct = static_cast<std::int64_t>(std::llround((1.0 - q) * 1000.0));
    return static_cast<std::int64_t>(samples) * beyond_pct >=
           static_cast<std::int64_t>(tail) * 1000;
}

// ---- memory ----------------------------------------------------------------

MemStatus parse_status(std::string_view text) {
    MemStatus status;
    bool anon = false;
    bool file = false;
    const auto field_mb = [](std::string_view line, std::string_view key, double& out) {
        if (line.substr(0, key.size()) != key) return false;
        line.remove_prefix(key.size());
        while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
            line.remove_prefix(1);
        }
        std::uint64_t kb = 0;
        const auto [ptr, ec] = std::from_chars(line.data(), line.data() + line.size(), kb);
        if (ec != std::errc() || ptr == line.data()) return false;
        out = static_cast<double>(kb) / 1024.0;
        return true;
    };
    while (!text.empty()) {
        const std::size_t eol = text.find('\n');
        const std::string_view line = text.substr(0, eol);
        anon = field_mb(line, "RssAnon:", status.rss_anon_mb) || anon;
        file = field_mb(line, "RssFile:", status.rss_file_mb) || file;
        if (eol == std::string_view::npos) break;
        text.remove_prefix(eol + 1);
    }
    status.ok = anon && file;
    return status;
}

MemStatus read_self_status() {
    std::ifstream in("/proc/self/status");
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parse_status(buffer.str());
}

MemSampler::MemSampler() {
    sample();
    thread_ = std::thread([this]() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; })) {
            lock.unlock();
            sample();
            lock.lock();
        }
    });
}

MemSampler::~MemSampler() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
}

void MemSampler::sample() {
    const MemStatus status = read_self_status();
    const std::lock_guard<std::mutex> lock(mutex_);
    peak_file_mb_ = std::max(peak_file_mb_, status.rss_file_mb);
    round_anon_mb_ = std::max(round_anon_mb_, status.rss_anon_mb);
}

void MemSampler::begin_round() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        round_anon_mb_ = 0.0;
    }
    sample();
}

void MemSampler::end_round() {
    sample();
    const std::lock_guard<std::mutex> lock(mutex_);
    round_peaks_.push_back(round_anon_mb_);
}

std::vector<double> MemSampler::round_peak_anon_mb() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return round_peaks_;
}

double MemSampler::peak_file_mb() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peak_file_mb_;
}

// ---- tracing ---------------------------------------------------------------

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
            children[static_cast<std::size_t>(parent)].push_back(i);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& span = spans[i];
        const std::int64_t duration = span.duration_ns();
        std::int64_t covered = 0;
        std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
        for (const std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
            const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
            if (hi > lo) intervals.emplace_back(lo, hi);
        }
        std::sort(intervals.begin(), intervals.end());
        std::int64_t run_lo = 0;
        std::int64_t run_hi = -1;
        for (const auto& [lo, hi] : intervals) {
            if (run_hi < lo) {
                if (run_hi > run_lo) covered += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo) covered += run_hi - run_lo;
        self[i] = std::max<std::int64_t>(0, duration - covered);
    }
    return self;
}

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

std::uint64_t thread_key() {
    return static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

thread_local int t_current_span = -1;

}  // namespace

int Tracer::begin(std::string name, std::string layer, int parent) {
    SpanRecord record;
    record.name = std::move(name);
    record.layer = std::move(layer);
    record.parent = parent;
    record.thread = thread_key();
    record.start_ns = now_ns();
    record.end_ns = record.start_ns;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int Tracer::add_interval(std::string name, std::string layer, int parent, std::int64_t start_ns,
                         std::int64_t end_ns, std::uint64_t thread) {
    SpanRecord record;
    record.name = std::move(name);
    record.layer = std::move(layer);
    record.parent = parent;
    record.thread = thread;
    record.start_ns = start_ns;
    record.end_ns = end_ns;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRecord> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

int current_span() { return t_current_span; }

Span::Span(Tracer* tracer, std::string name, std::string layer, int parent)
    : tracer_(tracer), saved_current_(t_current_span) {
    if (tracer_ == nullptr) return;
    id_ = tracer_->begin(std::move(name), std::move(layer), parent == -2 ? t_current_span : parent);
    t_current_span = id_;
}

Span::~Span() {
    if (tracer_ == nullptr) return;
    tracer_->end(id_);
    t_current_span = saved_current_;
}

RoundProfile profile_round(const std::vector<SpanRecord>& spans, int root) {
    RoundProfile profile;
    if (root < 0 || static_cast<std::size_t>(root) >= spans.size()) return profile;
    // Spans are appended in creation order, so a descendant always has a
    // larger id than its ancestors: one forward pass finds the subtree.
    std::vector<bool> inside(spans.size(), false);
    inside[static_cast<std::size_t>(root)] = true;
    for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size(); ++i) {
        const int parent = spans[i].parent;
        inside[i] = parent >= 0 && inside[static_cast<std::size_t>(parent)];
    }
    const std::vector<std::int64_t> self = self_times_ns(spans);
    const SpanRecord& round = spans[static_cast<std::size_t>(root)];
    profile.wall_s = static_cast<double>(round.duration_ns()) * 1e-9;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!inside[i]) continue;
        profile.self_s[spans[i].layer] += static_cast<double>(self[i]) * 1e-9;
        profile.inclusive_s[spans[i].name] += static_cast<double>(spans[i].duration_ns()) * 1e-9;
    }
    return profile;
}

// ---- pools -----------------------------------------------------------------

ObservedPool::ObservedPool(std::size_t workers)
    : epoch_ns_(steady_ns()), pool_(std::make_unique<tvacr::common::ThreadPool>(workers)) {
    pool_->set_observer([this](const tvacr::common::ThreadPool::TaskTiming& timing) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            timings_.push_back(timing);
        }
        observed_.fetch_add(1, std::memory_order_release);
    });
}

bool ObservedPool::wait_for(std::uint64_t tasks) const {
    const double deadline = now_s() + 10.0;
    while (observed_.load(std::memory_order_acquire) < tasks) {
        if (now_s() > deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

std::vector<tvacr::common::ThreadPool::TaskTiming> ObservedPool::take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(timings_, {});
}

// ---- set-up ----------------------------------------------------------------

std::vector<double> time_setup_in_children(int forks, const std::function<void()>& setup) {
    std::vector<double> times;
    std::fflush(nullptr);
    for (int i = 0; i < forks; ++i) {
        int fds[2];
        if (pipe(fds) != 0) return {};
        const pid_t pid = fork();
        if (pid < 0) {
            close(fds[0]);
            close(fds[1]);
            return {};
        }
        if (pid == 0) {
            close(fds[0]);
            const double t0 = now_s();
            setup();
            const double elapsed = now_s() - t0;
            const ssize_t wrote = write(fds[1], &elapsed, sizeof(elapsed));
            _exit(wrote == static_cast<ssize_t>(sizeof(elapsed)) ? 0 : 1);
        }
        close(fds[1]);
        double elapsed = 0.0;
        const ssize_t got = read(fds[0], &elapsed, sizeof(elapsed));
        close(fds[0]);
        int status = 0;
        const pid_t waited = waitpid(pid, &status, 0);
        if (waited != pid || got != static_cast<ssize_t>(sizeof(elapsed)) || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            return {};
        }
        times.push_back(elapsed);
    }
    return times;
}

// ---- results ---------------------------------------------------------------

void Outcome::fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
}

std::string format_number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc()) return "null";
    return std::string(buf, ptr);
}

bool RepeatCheck::same(const std::string& name, std::uint64_t value, std::string& why) {
    const auto [it, inserted] = first_.emplace(name, value);
    if (inserted || it->second == value) return true;
    why += name + " drifted from " + std::to_string(it->second) + " to " + std::to_string(value) +
           "; ";
    return false;
}

std::uint64_t RepeatCheck::value(const std::string& name) const {
    const auto it = first_.find(name);
    return it == first_.end() ? 0 : it->second;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
    std::uint64_t hash = seed;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

}  // namespace perfbench
