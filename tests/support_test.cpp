// Unit tests for src/support: strong ids, error primitives, the
// deterministic RNG, the statistics helpers (including the serve
// daemon's latency window), the lock-striped LRU cache, the JSON
// string escaper and the shared text-input line grammar.

#include "support/error.hpp"
#include "support/ids.hpp"
#include "support/json.hpp"
#include "support/line_grammar.hpp"
#include "support/rng.hpp"
#include "support/sharded_lru.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace mwl {
namespace {

// ---------------------------------------------------------------- ids --

TEST(StrongId, DefaultConstructedIsInvalid)
{
    op_id id;
    EXPECT_FALSE(id.is_valid());
    EXPECT_EQ(id, op_id::invalid());
}

TEST(StrongId, ValueRoundTrips)
{
    op_id id(42);
    EXPECT_TRUE(id.is_valid());
    EXPECT_EQ(id.value(), 42u);
}

TEST(StrongId, OrderingFollowsValues)
{
    EXPECT_LT(op_id(1), op_id(2));
    EXPECT_GT(op_id(5), op_id(3));
    EXPECT_EQ(op_id(7), op_id(7));
}

TEST(StrongId, DistinctTagsAreDistinctTypes)
{
    static_assert(!std::is_same_v<op_id, res_id>);
    static_assert(!std::is_same_v<res_id, clique_id>);
}

TEST(StrongId, HashWorksInUnorderedContainers)
{
    std::unordered_set<op_id> set;
    set.insert(op_id(1));
    set.insert(op_id(2));
    set.insert(op_id(1));
    EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, UsableAsOrderedKey)
{
    std::set<res_id> set{res_id(3), res_id(1), res_id(2)};
    EXPECT_EQ(set.begin()->value(), 1u);
}

// -------------------------------------------------------------- error --

TEST(Error, RequireThrowsPreconditionError)
{
    EXPECT_THROW(require(false, "boom"), precondition_error);
    EXPECT_NO_THROW(require(true, "fine"));
}

TEST(Error, RequireFeasibleThrowsInfeasibleError)
{
    EXPECT_THROW(require_feasible(false, "no way"), infeasible_error);
    EXPECT_NO_THROW(require_feasible(true, "ok"));
}

TEST(Error, ExceptionsDeriveFromMwlError)
{
    try {
        require(false, "message text");
        FAIL() << "should have thrown";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "message text");
    }
}

TEST(Error, InfeasibleIsDistinctFromPrecondition)
{
    EXPECT_THROW(
        {
            try {
                require_feasible(false, "x");
            } catch (const precondition_error&) {
                FAIL() << "wrong type";
            }
        },
        infeasible_error);
}

// ---------------------------------------------------------------- rng --

TEST(Rng, DeterministicForEqualSeeds)
{
    rng a(123);
    rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    rng a(1);
    rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += (a() == b()) ? 1 : 0;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds)
{
    rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, UniformCoversFullRange)
{
    rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(r.uniform(0, 3));
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformDegenerateRangeIsConstant)
{
    rng r(5);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(r.uniform(9, 9), 9u);
    }
}

TEST(Rng, UniformIntMatchesRange)
{
    rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const int v = r.uniform_int(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
    }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    rng r(13);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform_real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRealMeanIsPlausible)
{
    rng r(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform_real();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremesAreDeterministic)
{
    rng r(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    rng parent(21);
    rng child = parent.fork(1);
    rng parent2(21);
    rng child2 = parent2.fork(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(child(), child2());
    }
}

TEST(Rng, ForkSaltMatters)
{
    rng parent(21);
    rng a = parent.fork(1);
    rng parent2(21);
    rng b = parent2.fork(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        same += (a() == b()) ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

// -------------------------------------------------------------- stats --

TEST(Stats, MeanOfKnownSample)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevOfKnownSample)
{
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(stddev(v), 2.138, 1e-3);
}

TEST(Stats, StddevOfSingletonIsZero)
{
    const std::vector<double> v{42.0};
    EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(Stats, GeomeanOfKnownSample)
{
    const std::vector<double> v{1.0, 100.0};
    EXPECT_NEAR(geomean(v), 10.0, 1e-9);
}

TEST(Stats, PercentileEndpoints)
{
    const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Stats, PercentileInterpolates)
{
    const std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Stats, MinMaxOfSample)
{
    const std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(min_of(v), 1.0);
    EXPECT_DOUBLE_EQ(max_of(v), 3.0);
}

// ----------------------------------------------------- latency window --

TEST(LatencyWindow, EmptyWindowSummarisesToZeros)
{
    latency_window w(8);
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(LatencyWindow, SummarisesAKnownSample)
{
    latency_window w(8);
    for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        w.record(v);
    }
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.p50, 3.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(LatencyWindow, RingRetainsOnlyTheNewestSamples)
{
    latency_window w(4);
    for (int i = 1; i <= 10; ++i) {
        w.record(static_cast<double>(i));
    }
    const latency_summary s = w.summarize();
    // count is lifetime; the percentiles cover the retained {7,8,9,10}.
    EXPECT_EQ(s.count, 10u);
    EXPECT_DOUBLE_EQ(s.mean, 8.5);
    EXPECT_DOUBLE_EQ(s.p50, 8.5);
    EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(LatencyWindow, ConcurrentRecordersDoNotLoseCounts)
{
    latency_window w(64);
    constexpr int threads = 4;
    constexpr int per_thread = 1000;
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&w] {
                for (int i = 0; i < per_thread; ++i) {
                    w.record(1.0);
                }
            });
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    const latency_summary s = w.summarize();
    EXPECT_EQ(s.count, static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_DOUBLE_EQ(s.p99, 1.0);
}

// -------------------------------------------------------- sharded lru --

TEST(ShardedLru, RoundTripsAndMisses)
{
    sharded_lru<int, std::string> cache(64, 4);
    EXPECT_FALSE(cache.get(1).has_value());
    cache.put(1, "one");
    cache.put(2, "two");
    ASSERT_TRUE(cache.get(1).has_value());
    EXPECT_EQ(*cache.get(1), "one");
    EXPECT_EQ(*cache.get(2), "two");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.put(1, "uno"); // overwrite, not a new entry
    EXPECT_EQ(*cache.get(1), "uno");
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLru, ShardCountRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ((sharded_lru<int, int>(64, 1).shard_count()), 1u);
    EXPECT_EQ((sharded_lru<int, int>(64, 5).shard_count()), 8u);
    EXPECT_EQ((sharded_lru<int, int>(64, 16).shard_count()), 16u);
    // A tiny capacity caps the stripe count; every shard holds >= 1
    // entry and the total bound never shrinks below what was asked for.
    EXPECT_EQ((sharded_lru<int, int>(3, 16).shard_count()), 4u);
    EXPECT_GE((sharded_lru<int, int>(3, 16).capacity()), 3u);
    EXPECT_EQ((sharded_lru<int, int>(1, 16).shard_count()), 1u);
}

TEST(ShardedLru, SingleShardEvictsLeastRecentlyUsedAndCounts)
{
    sharded_lru<int, int> cache(2, 1);
    cache.put(1, 10);
    cache.put(2, 20);
    ASSERT_TRUE(cache.get(1).has_value()); // 1 is now MRU
    cache.put(3, 30);                      // evicts 2
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLru, BoundHoldsAcrossShards)
{
    sharded_lru<int, int> cache(16, 4);
    for (int i = 0; i < 1000; ++i) {
        cache.put(i, i);
    }
    EXPECT_LE(cache.size(), cache.capacity());
    EXPECT_GE(cache.evictions(), 1000 - cache.capacity());
}

TEST(ShardedLru, ConcurrentMixedTrafficStaysBoundedAndConsistent)
{
    // TSan coverage for the striping itself: hammer a small cache from
    // several threads with overlapping key ranges.
    sharded_lru<int, int> cache(32, 8);
    constexpr int threads = 4;
    constexpr int ops = 5000;
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&cache, t] {
                for (int i = 0; i < ops; ++i) {
                    const int key = (i + t * 13) % 64;
                    if (const auto hit = cache.get(key)) {
                        // A present value is always the one put for its key.
                        EXPECT_EQ(*hit, key * 3);
                    } else {
                        cache.put(key, key * 3);
                    }
                }
            });
        }
        for (std::thread& t : pool) {
            t.join();
        }
    }
    EXPECT_LE(cache.size(), cache.capacity());
}

// -------------------------------------------------------------- timer --

TEST(Timer, MeasuresNonNegativeTime)
{
    stopwatch w;
    EXPECT_GE(w.seconds(), 0.0);
    EXPECT_GE(w.milliseconds(), 0.0);
}

TEST(Timer, ResetRestartsTheClock)
{
    stopwatch w;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
        sink = sink + 1.0;
    }
    w.reset();
    EXPECT_LT(w.seconds(), 1.0);
}

// --------------------------------------------------------------- json --

TEST(Json, EscapeCoversQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(json_escape("plain fir8#0/r3"), "plain fir8#0/r3");
    EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01" "f"),
              "a\\\"b\\\\c\\nd\\te\\u0001f");
}

// -------------------------------------------------------- line grammar --

TEST(LineGrammar, SplitterTakesTheFirstEqualsAndNeedsBothSides)
{
    std::string key;
    std::string value;
    EXPECT_TRUE(split_key_value("k=v", key, value));
    EXPECT_EQ(key, "k");
    EXPECT_EQ(value, "v");
    EXPECT_TRUE(split_key_value("k==v", key, value));
    EXPECT_EQ(key, "k");
    EXPECT_EQ(value, "=v");
    EXPECT_TRUE(split_key_value("k=v=w", key, value));
    EXPECT_EQ(key, "k");
    EXPECT_EQ(value, "v=w");
    EXPECT_FALSE(split_key_value("k=", key, value));
    EXPECT_FALSE(split_key_value("=v", key, value));
    EXPECT_FALSE(split_key_value("=", key, value));
    EXPECT_FALSE(split_key_value("kv", key, value));
}

/// A caller's own error type, to check the loop rethrows as it.
class grammar_error : public error {
public:
    using error::error;
};

/// (keyword, rest of line, line number) for every statement of `text`.
std::vector<std::string> statements(const std::string& text)
{
    std::istringstream in(text);
    std::vector<std::string> seen;
    for_each_line<grammar_error>(
        in, "test line",
        [&](const std::string& keyword, std::istream& line,
            std::size_t line_no) {
            std::string rest;
            std::getline(line, rest);
            seen.push_back(std::to_string(line_no) + ":" + keyword + ":" +
                           rest);
        });
    return seen;
}

TEST(LineGrammar, BlankAndCommentLinesAreSkippedButCounted)
{
    EXPECT_EQ(statements("# header\n\n   \nop a b\n  #x y\n\tdep c d\n"
                         "last"),
              (std::vector<std::string>{"4:op: a b", "6:dep: c d",
                                        "7:last:"}));
    EXPECT_TRUE(statements("").empty());
    EXPECT_TRUE(statements("#only\n\n").empty());
}

TEST(LineGrammar, ErrorsComeBackAsTheCallersTypeWithTheLinePrefix)
{
    std::istringstream in("# one\nfirst\nsecond\n");
    try {
        for_each_line<grammar_error>(
            in, "test line",
            [](const std::string& keyword, std::istream&, std::size_t) {
                require(keyword != "second", "bad second");
            });
        ADD_FAILURE() << "expected grammar_error";
    } catch (const grammar_error& e) {
        EXPECT_STREQ(e.what(), "test line 3: bad second");
    }
    EXPECT_EQ(line_diagnostic("line", 7, "oops"), "line 7: oops");
}

TEST(LineGrammar, KeyValueHelperOwnsTheShapeAndUnknownKeyDiagnostics)
{
    const auto run = [](const std::string& text) {
        std::istringstream line(text);
        std::vector<std::string> taken;
        for_each_key_value(line, "frac",
                           [&](const std::string& key,
                               const std::string& value,
                               const std::string& token) {
                               taken.push_back(key + "|" + value + "|" +
                                               token);
                               return key != "wibble";
                           });
        return taken;
    };
    EXPECT_EQ(run(" min=2  max=k=v "),
              (std::vector<std::string>{"min|2|min=2", "max|k=v|max=k=v"}));
    const auto message = [&](const std::string& text) {
        try {
            static_cast<void>(run(text));
        } catch (const precondition_error& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(message("min=2 max="), "expected key=value, got 'max='");
    EXPECT_EQ(message("=3"), "expected key=value, got '=3'");
    EXPECT_EQ(message("wibble=1"), "unknown frac key 'wibble'");
}

TEST(LineGrammar, SectionGuardRejectsTheSecondLineOfASection)
{
    once_per_spec sections;
    sections.enter("lambda");
    sections.enter("model");
    try {
        sections.enter("lambda");
        ADD_FAILURE() << "expected a duplicate";
    } catch (const precondition_error& e) {
        EXPECT_STREQ(e.what(), "duplicate lambda line");
    }
}

} // namespace
} // namespace mwl
