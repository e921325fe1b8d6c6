// Property / fuzz tests for the O(k log k) chain utilities against the
// original quadratic implementations: the longest-chain DP of the
// test-only oracle (tests/oracle/) and an all-pairs is_chain.
//
// longest_chain's sweep is required to reproduce the original DP *exactly*
// (same chain, not merely the same length): BindSelect's output -- and
// hence every DPAlloc allocation -- depends on which maximum chain is
// picked, and the production-vs-oracle regression suite
// (incremental_regression_test.cpp) relies on bit-identical results.

#include "oracle.hpp"

#include "support/rng.hpp"
#include "wcg/chains.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace mwl {
namespace {

using oracle::longest_chain_dp;

/// The original all-pairs is_chain.
bool is_chain_pairwise(std::span<const timed_op> items)
{
    for (std::size_t i = 0; i < items.size(); ++i) {
        for (std::size_t j = i + 1; j < items.size(); ++j) {
            if (!precedes(items[i], items[j]) &&
                !precedes(items[j], items[i])) {
                return false;
            }
        }
    }
    return true;
}

std::vector<timed_op> random_items(rng& random, std::size_t max_k,
                                   int max_start, int max_latency)
{
    const std::size_t k = random.uniform(0, max_k);
    std::vector<timed_op> items;
    items.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
        items.push_back(timed_op{op_id(i), random.uniform_int(0, max_start),
                                 random.uniform_int(1, max_latency)});
    }
    return items;
}

void expect_same_chain(const std::vector<timed_op>& items, int trial)
{
    const std::vector<timed_op> oracle = longest_chain_dp(items);
    const std::vector<timed_op> sweep = longest_chain(items);
    ASSERT_EQ(sweep.size(), oracle.size()) << "trial " << trial;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(sweep[i].op, oracle[i].op) << "trial " << trial;
        EXPECT_EQ(sweep[i].start, oracle[i].start) << "trial " << trial;
        EXPECT_EQ(sweep[i].latency, oracle[i].latency) << "trial " << trial;
    }
}

TEST(ChainsProperty, SweepReproducesDpOnDenseRandomSets)
{
    // Heavily overlapping intervals: many ties, small chains.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A1);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        expect_same_chain(random_items(random, 40, 12, 6), trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpOnSparseRandomSets)
{
    // Spread-out intervals: long chains, few ties.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A2);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        expect_same_chain(random_items(random, 40, 200, 4), trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpAroundSmallInputCutover)
{
    // longest_chain switches implementation around k = 16 and has
    // dedicated k <= 2 fast paths; hammer exactly those sizes.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A3);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 800; ++trial) {
        const std::size_t k = random.uniform(0, 18);
        std::vector<timed_op> items;
        for (std::size_t i = 0; i < k; ++i) {
            items.push_back(timed_op{op_id(i), random.uniform_int(0, 6),
                                     random.uniform_int(1, 4)});
        }
        expect_same_chain(items, trial);
    }
}

TEST(ChainsProperty, SweepReproducesDpWithDuplicateIntervals)
{
    // Identical (start, latency) pairs on distinct ops exercise every
    // tie-break level.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A4);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t k = random.uniform(0, 24);
        std::vector<timed_op> items;
        for (std::size_t i = 0; i < k; ++i) {
            items.push_back(timed_op{op_id(i), random.uniform_int(0, 3),
                                     random.uniform_int(1, 2)});
        }
        expect_same_chain(items, trial);
    }
}

/// `items` in the by-finish order max_chain_length requires.
std::vector<timed_op> by_finish(std::vector<timed_op> items)
{
    std::sort(items.begin(), items.end(),
              [](const timed_op& a, const timed_op& b) {
                  return a.finish() < b.finish();
              });
    return items;
}

TEST(ChainsProperty, MaxChainLengthMatchesLongestChainAndDp)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A7);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    for (int trial = 0; trial < 1200; ++trial) {
        // Alternate dense (many ties) and sparse (long chains) sets.
        const std::vector<timed_op> items =
            trial % 2 == 0 ? random_items(random, 40, 12, 6)
                           : random_items(random, 40, 200, 4);
        const std::vector<timed_op> sorted = by_finish(items);
        std::vector<timed_op> greedy;
        const std::size_t length = max_chain_length(
            sorted, [&](const timed_op& item) { greedy.push_back(item); });
        EXPECT_EQ(length, longest_chain(items).size()) << "trial " << trial;
        EXPECT_EQ(length, longest_chain_dp(items).size())
            << "trial " << trial;
        EXPECT_EQ(max_chain_length(sorted), length) << "trial " << trial;
        ASSERT_EQ(greedy.size(), length) << "trial " << trial;
        EXPECT_TRUE(is_chain(greedy)) << "trial " << trial;
    }
}

TEST(ChainsProperty, RemovingNonGreedyItemKeepsMaxChainLength)
{
    // The invariant BindSelect's length memo rests on: covering an
    // operation outside a resource's greedy chain cannot change that
    // resource's longest-chain length.
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A8);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    int removals = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const std::vector<timed_op> sorted =
            by_finish(random_items(random, 30, 40, 6));
        std::vector<bool> in_greedy(sorted.size(), false);
        const std::size_t length =
            max_chain_length(sorted, [&](const timed_op& item) {
                in_greedy[item.op.value()] = true;
            });
        for (std::size_t skip = 0; skip < sorted.size(); ++skip) {
            if (in_greedy[sorted[skip].op.value()]) {
                continue;
            }
            std::vector<timed_op> rest = sorted;
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(skip));
            EXPECT_EQ(max_chain_length(rest), length)
                << "trial " << trial << " removing op "
                << sorted[skip].op.value();
            EXPECT_EQ(longest_chain_dp(rest).size(), length)
                << "trial " << trial;
            ++removals;
        }
    }
    EXPECT_GT(removals, 0);
}

TEST(ChainsProperty, IsChainMatchesPairwiseOracle)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A5);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    int chains_seen = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        const std::vector<timed_op> items =
            random_items(random, 8, 10, 3);
        const bool expected = is_chain_pairwise(items);
        EXPECT_EQ(is_chain(items), expected) << "trial " << trial;
        chains_seen += expected ? 1 : 0;
    }
    // The distribution must actually exercise both outcomes.
    EXPECT_GT(chains_seen, 0);
}

TEST(ChainsProperty, LongestChainIntoReusesCapacity)
{
    const std::uint64_t seed =
        testing::env_seed("MWL_CHAINS_SEED", 0xC4A6);
    MWL_TRACE_SEED("MWL_CHAINS_SEED", seed);
    rng random(seed);
    chain_scratch scratch;
    std::vector<timed_op> out;
    for (int trial = 0; trial < 100; ++trial) {
        const std::vector<timed_op> items = random_items(random, 30, 50, 5);
        longest_chain_into(items, scratch, out);
        const std::vector<timed_op> fresh = longest_chain(items);
        ASSERT_EQ(out.size(), fresh.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].op, fresh[i].op);
        }
    }
}

} // namespace
} // namespace mwl
