// Measurement primitives shared by the perfbench workloads: clocks, order
// statistics, /proc/self/status memory parsing, in-memory span tracing, the
// untimed set-up sampler and the result sink.
//
// Nothing here reaches into the program under test: spans are recorded
// around calls the benchmark makes into each layer's public API.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();
/// CPU seconds (user + system) consumed by every thread of this process.
[[nodiscard]] double cpu_s();

// ---- order statistics --------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// First and third quartile plus median, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method). A single
/// value yields that value three times.
struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// A percentile q is reported only when at least `tail` samples lie beyond
/// it, i.e. n * (1 - q) >= tail: p90 needs 100 samples, p50 needs 20.
[[nodiscard]] bool percentile_supported(std::size_t samples, double q, std::size_t tail = 10);

// ---- memory --------------------------------------------------------------

struct MemStatus {
    double rss_anon_mb = 0.0;
    double rss_file_mb = 0.0;
    bool ok = false;  // both fields were found
};
/// Parses the RssAnon/RssFile lines of a /proc/<pid>/status text.
[[nodiscard]] MemStatus parse_status(std::string_view text);
[[nodiscard]] MemStatus read_self_status();

/// Maxima of RssAnon and RssFile. A background thread samples every 10 ms
/// while the sampler lives, because memory is freed before a long call (an
/// audit, a sweep) returns; sample() adds a sample at an operation
/// boundary. Between begin_round() and end_round() the RssAnon maximum of
/// that round is tracked too: where concurrent work overlaps differently
/// from round to round, the median of the round maxima is the steady
/// figure.
class MemSampler {
  public:
    MemSampler();
    ~MemSampler();
    MemSampler(const MemSampler&) = delete;
    MemSampler& operator=(const MemSampler&) = delete;

    void sample();
    void begin_round();
    void end_round();
    [[nodiscard]] double peak_file_mb() const;
    [[nodiscard]] std::vector<double> round_peak_anon_mb() const;

  private:
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;                     // guarded by mutex_
    double peak_file_mb_ = 0.0;             // guarded by mutex_
    double round_anon_mb_ = 0.0;            // guarded by mutex_
    std::vector<double> round_peaks_;       // guarded by mutex_
    std::thread thread_;                    // last: started after the fields it uses
};

// ---- tracing -------------------------------------------------------------

/// One recorded span: [start_ns, end_ns] on one thread. Spans wrap whole
/// calls or whole loops, never a single per-record call, so the clock reads
/// stay a vanishing share of what they time.
struct SpanRecord {
    std::string name;
    std::string layer;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t thread = 0;

    [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children are clipped to the parent and merged, so
/// overlapping children (work on other threads) are not counted twice.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Steady-clock nanoseconds; the time base of every span.
[[nodiscard]] std::int64_t steady_ns();

/// Thread-safe in-memory span store; written out only when the run ends.
class Tracer {
  public:
    [[nodiscard]] std::int64_t now_ns() const { return steady_ns(); }
    /// Opens an interval span and returns its id.
    int begin(std::string name, std::string layer, int parent);
    void end(int id);
    /// Records an already-measured interval (e.g. a pool task's timing).
    int add_interval(std::string name, std::string layer, int parent, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t thread);

    [[nodiscard]] std::vector<SpanRecord> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// The span the current thread is inside (-1 at top level).
[[nodiscard]] int current_span();

/// RAII interval span; a null tracer makes it a no-op. The new span's parent
/// is the thread's current span unless one is given (work handed to another
/// thread names its parent explicitly).
class Span {
  public:
    Span(Tracer* tracer, std::string name, std::string layer, int parent = -2);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

  private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_current_ = -1;
};

/// Per-layer summary of one traced round (a root span and its subtree).
struct RoundProfile {
    double wall_s = 0.0;                        // root span duration
    std::map<std::string, double> self_s;       // layer -> summed self time
    std::map<std::string, double> inclusive_s;  // span name -> summed duration
};
[[nodiscard]] RoundProfile profile_round(const std::vector<SpanRecord>& spans, int root);

// ---- pools -----------------------------------------------------------------

/// A benchmark-owned ThreadPool with an observer that keeps every task's
/// timing. The observer fires after a task's future is satisfied, so
/// callers wait_for() the tasks they know were submitted before reading.
class ObservedPool {
  public:
    explicit ObservedPool(std::size_t workers);
    ObservedPool(const ObservedPool&) = delete;
    ObservedPool& operator=(const ObservedPool&) = delete;

    [[nodiscard]] tvacr::common::ThreadPool& pool() noexcept { return *pool_; }
    /// Blocks until `tasks` tasks in total have been observed; false after a
    /// 10 s timeout (a task count the caller predicted wrongly).
    [[nodiscard]] bool wait_for(std::uint64_t tasks) const;
    /// Timings observed since the last take(), in observation order.
    [[nodiscard]] std::vector<tvacr::common::ThreadPool::TaskTiming> take();
    /// steady_ns() just before the pool was built: TaskTiming times are
    /// relative to (within microseconds of) this instant.
    [[nodiscard]] std::int64_t epoch_ns() const noexcept { return epoch_ns_; }

  private:
    std::int64_t epoch_ns_ = 0;
    std::mutex mutex_;
    std::vector<tvacr::common::ThreadPool::TaskTiming> timings_;  // guarded by mutex_
    std::atomic<std::uint64_t> observed_{0};
    std::unique_ptr<tvacr::common::ThreadPool> pool_;  // last: joined before the rest
};

// ---- set-up ------------------------------------------------------------------

/// Times `setup` in `forks` fresh child processes (forked before this
/// process starts any thread, so each begins as cold as the first) and
/// returns those durations. Children exit without running destructors.
/// Returns an empty vector if a child fails.
[[nodiscard]] std::vector<double> time_setup_in_children(int forks,
                                                         const std::function<void()>& setup);

// ---- results -----------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports: operations attempted/failed, the
/// end-to-end or per-layer metrics, the per-path figures printed for
/// people, and the facts that make a result comparable.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;          // first few, for stderr
    std::map<std::string, Metric> metrics;      // the contract's metrics
    std::map<std::string, Metric> named;        // per-path figures
    std::map<std::string, std::string> inputs;  // input sizes and settings
    std::map<std::string, std::uint64_t> samples;
    /// Within-run spread of a per-round series: (q3 - q1) / median.
    std::map<std::string, double> round_spread;

    void fail(std::string why);
    void check(bool ok, const std::string& why) {
        ++attempted;
        if (!ok) fail(why);
    }
};

/// Shortest round-trip decimal form of a double ("null" if not finite).
[[nodiscard]] std::string format_number(double value);

/// Checks that a deterministic count repeats exactly across repeats: the
/// first observation is kept; a later different value returns false and
/// appends a description to `why` (the caller fails that operation).
class RepeatCheck {
  public:
    [[nodiscard]] bool same(const std::string& name, std::uint64_t value, std::string& why);
    [[nodiscard]] std::uint64_t value(const std::string& name) const;

  private:
    std::map<std::string, std::uint64_t> first_;
};

/// 64-bit FNV-1a, for comparing large outputs without keeping them.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace perfbench
