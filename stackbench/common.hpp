// Shared plumbing of the allocation-stack benchmark: run configuration,
// the result record printed as the final JSON line, sample statistics,
// and the environment probes (peak memory, effective parallelism).
//
// Statistics are computed here rather than with the library's own
// support/stats so that a change to the code under test cannot change
// how it is measured.

#ifndef STACKBENCH_COMMON_HPP
#define STACKBENCH_COMMON_HPP

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace stackbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(bench_clock::time_point from,
                                       bench_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

[[nodiscard]] inline double ms_since(bench_clock::time_point from)
{
    return ms_between(from, bench_clock::now());
}

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// min(4, nproc): the jobs of the traced scaling leg and the width of
    /// the effective-parallelism probe (timed work uses one thread).
    std::size_t threads = 1;
    /// Private scratch directory inside the checkout (sockets, stores).
    std::filesystem::path tmp_dir;
};

/// One run's outcome: the metrics of the selected mode, the attempted /
/// failed unit counts, every failed output check, and human-readable
/// notes (printed before the final JSON line).
class report {
public:
    void metric(const std::string& name, double value,
                const std::string& unit);
    /// Record an output check; a false `ok` makes the run incorrect and
    /// keeps `what` for the summary.
    void check(bool ok, const std::string& what);
    void units(std::size_t attempted, std::size_t failed);
    void note(const std::string& line);

    [[nodiscard]] bool correct() const { return failures_.empty(); }

    /// Notes, failed checks and one `name value unit` line per metric.
    void print_summary(std::ostream& out) const;
    /// The contract's final line: correct, attempted, failed, metrics.
    [[nodiscard]] std::string json() const;

private:
    struct entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<entry> metrics_;
    std::vector<std::string> failures_;
    std::vector<std::string> notes_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

[[nodiscard]] double median_of(std::vector<double> sample);

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} with at least ten
/// samples beyond it; the maximum (percentile 100) when the sample is too
/// small for even the median to qualify.
struct tail_stat {
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
    std::size_t beyond = 0; ///< samples strictly above the percentile rank
};
[[nodiscard]] tail_stat tail_of(std::vector<double> sample);

/// Formats a tail as e.g. "p99.9 of 31840 samples (31 beyond)".
[[nodiscard]] std::string describe(const tail_stat& tail);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Measured speedup of `threads` independent spin loops over one: the
/// parallelism the machine actually delivers right now, the base every
/// jobs-scaling ratio is reported against. Median of three probes, run
/// on every CPU whatever the caller's affinity.
[[nodiscard]] double effective_parallelism(std::size_t threads);

/// Sets the calling thread's CPU affinity for its lifetime and restores
/// the previous mask on destruction; threads started meanwhile inherit
/// it. `one` = the CPU the thread is running on; `other` = the next CPU
/// after that one among those the process could use at start (the same
/// CPU when it is the only one); `all` = every CPU the process could use
/// at start.
class cpu_affinity {
public:
    enum class scope { one, other, all };
    explicit cpu_affinity(scope which);
    ~cpu_affinity();
    cpu_affinity(const cpu_affinity&) = delete;
    cpu_affinity& operator=(const cpu_affinity&) = delete;

private:
    cpu_set_t saved_{};
    bool restore_ = false;
};

/// Deterministic stream for the benchmark's own draws (schedules,
/// popularity): splitmix64, independent of the library's rng.
class draw_stream {
public:
    explicit draw_stream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double unit();

private:
    std::uint64_t state_;
};

} // namespace stackbench

#endif // STACKBENCH_COMMON_HPP
