#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

namespace stackbench {

void report::metric(const std::string& name, double value,
                    const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void report::check(bool ok, const std::string& what)
{
    if (!ok) {
        failures_.push_back(what);
    }
}

void report::units(std::size_t attempted, std::size_t failed)
{
    attempted_ = attempted;
    failed_ = failed;
}

void report::note(const std::string& line) { notes_.push_back(line); }

void report::print_summary(std::ostream& out) const
{
    for (const std::string& line : notes_) {
        out << "# " << line << '\n';
    }
    for (const std::string& line : failures_) {
        out << "# CHECK FAILED: " << line << '\n';
    }
    out << "# attempted " << attempted_ << " failed " << failed_ << '\n';
    for (const entry& m : metrics_) {
        char value[64];
        std::snprintf(value, sizeof value, "%.6g", m.value);
        out << "# " << m.name << " = " << value << ' ' << m.unit << '\n';
    }
}

std::string report::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        // %.17g keeps every digit of the measurement; non-finite values
        // cannot be represented in JSON and would mean a broken metric.
        char value[64];
        const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                          : 0.0;
        std::snprintf(value, sizeof value, "%.17g", v);
        out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double median_of(std::vector<double> sample)
{
    if (sample.empty()) {
        return 0.0;
    }
    std::sort(sample.begin(), sample.end());
    const std::size_t n = sample.size();
    return n % 2 == 1 ? sample[n / 2]
                      : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double quantile_sorted(const std::vector<double>& sorted, double q)
{
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

tail_stat tail_of(std::vector<double> sample)
{
    tail_stat tail;
    tail.samples = sample.size();
    if (sample.empty()) {
        return tail;
    }
    std::sort(sample.begin(), sample.end());
    const double n = static_cast<double>(sample.size());
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const std::size_t at = static_cast<std::size_t>(
            std::ceil(p / 100.0 * n));
        if (sample.size() - at >= 10) {
            tail.value = quantile_sorted(sample, p / 100.0);
            tail.percentile = p;
            tail.beyond = sample.size() - at;
            return tail;
        }
    }
    tail.value = sample.back();
    tail.percentile = 100.0;
    tail.beyond = 0;
    return tail;
}

std::string describe(const tail_stat& tail)
{
    std::ostringstream out;
    out << 'p' << tail.percentile << " of " << tail.samples << " samples ("
        << tail.beyond << " beyond)";
    return out.str();
}

double peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // reported in kB
        }
    }
    return 0.0;
}

namespace {

/// A fixed amount of register-only work (no memory traffic, no sharing).
std::uint64_t spin(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

} // namespace

double effective_parallelism(std::size_t threads)
{
    const cpu_affinity everywhere(cpu_affinity::scope::all);
    std::vector<double> probes;
    for (int rep = 0; rep < 3; ++rep) {
        volatile std::uint64_t sink = 0;
        auto start = bench_clock::now();
        sink = sink + spin(rep + 1);
        const double one = ms_since(start);

        std::vector<std::uint64_t> out(threads, 0);
        std::vector<std::thread> workers;
        start = bench_clock::now();
        for (std::size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&out, t] { out[t] = spin(t + 7); });
        }
        for (std::thread& w : workers) {
            w.join();
        }
        const double many = ms_since(start);
        for (const std::uint64_t v : out) {
            sink = sink + v;
        }
        probes.push_back(static_cast<double>(threads) * one / many);
    }
    return median_of(std::move(probes));
}

namespace {

/// The affinity the process started with, read before any narrowing.
const cpu_set_t& startup_mask()
{
    static const cpu_set_t mask = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        if (::sched_getaffinity(0, sizeof m, &m) != 0) {
            CPU_ZERO(&m);
        }
        return m;
    }();
    return mask;
}

} // namespace

cpu_affinity::cpu_affinity(scope which)
{
    const cpu_set_t& all = startup_mask();
    if (CPU_COUNT(&all) == 0 ||
        ::sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
        return; // affinity unavailable: leave scheduling alone
    }
    cpu_set_t wanted = all;
    if (which != scope::all) {
        int cpu = ::sched_getcpu();
        if (cpu < 0) {
            return;
        }
        for (int step = 1; which == scope::other && step < CPU_SETSIZE;
             ++step) {
            if (CPU_ISSET((cpu + step) % CPU_SETSIZE, &all)) {
                cpu = (cpu + step) % CPU_SETSIZE;
                break;
            }
        }
        CPU_ZERO(&wanted);
        CPU_SET(cpu, &wanted);
    }
    restore_ = ::sched_setaffinity(0, sizeof wanted, &wanted) == 0;
}

cpu_affinity::~cpu_affinity()
{
    if (restore_) {
        static_cast<void>(::sched_setaffinity(0, sizeof saved_, &saved_));
    }
}

std::uint64_t draw_stream::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double draw_stream::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace stackbench
