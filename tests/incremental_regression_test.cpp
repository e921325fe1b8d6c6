// Regression suite for the incremental DPAlloc pipeline: every cache and
// engine introduced for speed (event-driven scheduling, memoized /
// warm-started scheduling sets, chain memoization in BindSelect, cached
// WCG latency bounds) must leave results *byte-identical* to the
// from-scratch reference pipeline, the test-only oracle in tests/oracle/.
// See PERF.md for the invariants each cache maintains.

#include "oracle.hpp"

#include "core/dpalloc.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "support/rng.hpp"
#include "tgff/corpus.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include <gtest/gtest.h>

namespace mwl {
namespace {

void expect_identical(const dpalloc_result& a, const dpalloc_result& b,
                      const std::string& label)
{
    // datapath
    EXPECT_EQ(a.path.start, b.path.start) << label;
    EXPECT_EQ(a.path.instance_of_op, b.path.instance_of_op) << label;
    EXPECT_EQ(a.path.total_area, b.path.total_area) << label;
    EXPECT_EQ(a.path.latency, b.path.latency) << label;
    ASSERT_EQ(a.path.instances.size(), b.path.instances.size()) << label;
    for (std::size_t i = 0; i < a.path.instances.size(); ++i) {
        const datapath_instance& x = a.path.instances[i];
        const datapath_instance& y = b.path.instances[i];
        EXPECT_EQ(x.shape, y.shape) << label << " instance " << i;
        EXPECT_EQ(x.latency, y.latency) << label << " instance " << i;
        EXPECT_EQ(x.area, y.area) << label << " instance " << i;
        EXPECT_EQ(x.ops, y.ops) << label << " instance " << i;
    }
    // stats
    EXPECT_EQ(a.stats.iterations, b.stats.iterations) << label;
    EXPECT_EQ(a.stats.refinements, b.stats.refinements) << label;
    EXPECT_EQ(a.stats.edges_deleted, b.stats.edges_deleted) << label;
    EXPECT_EQ(a.stats.final_capacity, b.stats.final_capacity) << label;
    EXPECT_EQ(a.stats.escalations, b.stats.escalations) << label;
    EXPECT_EQ(a.stats.cover_always_minimum, b.stats.cover_always_minimum)
        << label;
}

TEST(IncrementalRegression, DpallocIdenticalOnTgffCorpus)
{
    const sonic_model model;
    for (const std::size_t n : {4u, 8u, 12u, 16u, 20u, 50u, 75u}) {
        const auto corpus = make_corpus(n, 4, model, 777);
        for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
            const corpus_entry& e = corpus[gi];
            for (const double slack : {0.0, 0.1, 0.3}) {
                const int lambda = relaxed_lambda(e.lambda_min, slack);
                const dpalloc_result a = dpalloc(e.graph, model, lambda);
                const dpalloc_result b =
                    oracle::dpalloc(e.graph, model, lambda);
                expect_identical(a, b,
                                 "n=" + std::to_string(n) + " graph=" +
                                     std::to_string(gi) + " slack=" +
                                     std::to_string(slack));
            }
        }
    }
}

TEST(IncrementalRegression, DpallocIdenticalUnderClassicConstraint)
{
    const sonic_model model;
    const auto corpus = make_corpus(12, 4, model, 778);
    for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
        const corpus_entry& e = corpus[gi];
        dpalloc_options classic;
        classic.classic_constraint = true;
        const dpalloc_result a =
            dpalloc(e.graph, model, e.lambda_min, classic);
        const dpalloc_result b =
            oracle::dpalloc(e.graph, model, e.lambda_min, classic);
        expect_identical(a, b, "classic graph=" + std::to_string(gi));
    }
}

TEST(IncrementalRegression, DpallocIdenticalWithoutGrowthAndReassign)
{
    // The ablation arms exercise different BindSelect paths; the chain
    // memoization must be inert there too.
    const sonic_model model;
    const auto corpus = make_corpus(10, 3, model, 779);
    for (const corpus_entry& e : corpus) {
        dpalloc_options ablated;
        ablated.enable_growth = false;
        ablated.reassign_cheapest = false;
        expect_identical(
            dpalloc(e.graph, model, e.lambda_min, ablated),
            oracle::dpalloc(e.graph, model, e.lambda_min, ablated),
            "ablation");
    }
}

TEST(IncrementalRegression, EventScheduleMatchesReferenceScan)
{
    rng random(0xE7E7);
    const sonic_model model;
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        wordlength_compatibility_graph wcg(g, model);
        for (const int capacity : {1, 2}) {
            incomplete_sched_scratch scratch;
            const incomplete_schedule_result ev =
                schedule_incomplete(wcg, capacity, &scratch);
            const incomplete_schedule_result ref =
                oracle::schedule_incomplete(wcg, capacity);
            EXPECT_EQ(ev.start, ref.start) << "trial " << trial;
            EXPECT_EQ(ev.length, ref.length) << "trial " << trial;
            EXPECT_EQ(ev.scheduling_set, ref.scheduling_set)
                << "trial " << trial;
        }
        // Also after refinement shrank some H rows.
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                wcg.refine_op(o);
                break;
            }
        }
        const incomplete_schedule_result ev = schedule_incomplete(wcg, 1);
        const incomplete_schedule_result ref =
            oracle::schedule_incomplete(wcg, 1);
        EXPECT_EQ(ev.start, ref.start) << "refined trial " << trial;
    }
}

/// 70 independent multipliers of widths i x (136 - i): 68 shapes up to
/// operand order, none covering another, so once fully refined each shape
/// needs its own resource and the scheduling set grows past 64 members.
sequencing_graph wide_antichain()
{
    sequencing_graph g;
    for (int i = 1; i <= 70; ++i) {
        g.add_operation(op_shape::multiplier(i, 136 - i));
    }
    return g;
}

TEST(IncrementalRegression, WideCoverMatchesOracle)
{
    // Covers of more than 64 members leave the signature tournament for
    // the generic event sweep; the oracle must agree there too.
    const sequencing_graph g = wide_antichain();
    const sonic_model model;
    wordlength_compatibility_graph wcg(g, model);
    for (const op_id o : g.all_ops()) {
        while (wcg.refinable(o)) {
            wcg.refine_op(o);
        }
    }
    incomplete_sched_scratch scratch;
    for (const int capacity : {1, 2}) {
        const incomplete_schedule_result ev =
            schedule_incomplete(wcg, capacity, &scratch);
        ASSERT_GT(ev.scheduling_set.size(), 64u);
        const incomplete_schedule_result ref =
            oracle::schedule_incomplete(wcg, capacity);
        EXPECT_EQ(ev.start, ref.start) << "capacity " << capacity;
        EXPECT_EQ(ev.length, ref.length) << "capacity " << capacity;
        EXPECT_EQ(ev.scheduling_set, ref.scheduling_set)
            << "capacity " << capacity;
    }
    // The full loop passes through covers of 65-68 members on the way, at
    // lambda_min (with a capacity escalation) and at twice it (without).
    for (const int lambda : {17, 34}) {
        expect_identical(dpalloc(g, model, lambda),
                         oracle::dpalloc(g, model, lambda),
                         "wide antichain lambda=" + std::to_string(lambda));
    }
}

TEST(IncrementalRegression, EventListScheduleMatchesReferenceScan)
{
    rng random(0xE7E8);
    const sonic_model model;
    for (int trial = 0; trial < 25; ++trial) {
        tgff_options opts;
        opts.n_ops = 4 + static_cast<std::size_t>(trial) % 14;
        const sequencing_graph g = generate_tgff(opts, random);
        std::vector<int> lat;
        lat.reserve(g.size());
        for (const op_id o : g.all_ops()) {
            lat.push_back(model.latency(g.shape(o)));
        }
        for (const int limit : {1, 2, 1000}) {
            type_limits limits;
            limits.add = limit;
            limits.mul = limit;
            event_schedule_workspace ws;
            const list_schedule_result ev =
                list_schedule(g, lat, limits, &ws);
            const list_schedule_result ref =
                oracle::list_schedule(g, lat, limits);
            EXPECT_EQ(ev.start, ref.start)
                << "trial " << trial << " limit " << limit;
            EXPECT_EQ(ev.length, ref.length)
                << "trial " << trial << " limit " << limit;
        }
    }
}

TEST(IncrementalRegression, CachedWcgBoundsMatchRescan)
{
    // The cached latency bounds must track delete_edge/refine_op exactly.
    rng random(0xE7E9);
    const sonic_model model;
    tgff_options opts;
    opts.n_ops = 14;
    const sequencing_graph g = generate_tgff(opts, random);
    wordlength_compatibility_graph wcg(g, model);

    const auto check_all = [&]() {
        for (const op_id o : g.all_ops()) {
            int upper = 0;
            int lower = 0;
            for (const res_id r : wcg.resources_for(o)) {
                upper = std::max(upper, wcg.latency(r));
                lower = lower == 0 ? wcg.latency(r)
                                   : std::min(lower, wcg.latency(r));
            }
            EXPECT_EQ(wcg.latency_upper_bound(o), upper);
            EXPECT_EQ(wcg.latency_lower_bound(o), lower);
            EXPECT_EQ(wcg.refinable(o), lower < upper);
        }
    };

    check_all();
    std::uint64_t version = wcg.edge_version();
    // Refine every op to exhaustion, re-checking the caches at each step.
    bool progress = true;
    while (progress) {
        progress = false;
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                const int deleted = wcg.refine_op(o);
                EXPECT_EQ(wcg.edge_version(),
                          version + static_cast<std::uint64_t>(deleted));
                version = wcg.edge_version();
                check_all();
                progress = true;
                break;
            }
        }
    }
}

TEST(IncrementalRegression, SchedulingSetCacheHitsAndWarmStarts)
{
    const sonic_model model;
    rng random(0xE7EA);
    tgff_options opts;
    opts.n_ops = 12;
    const sequencing_graph g = generate_tgff(opts, random);
    wordlength_compatibility_graph wcg(g, model);

    scheduling_set_cache cache;
    const scheduling_set_result cold = min_scheduling_set(wcg);
    const scheduling_set_result warm = min_scheduling_set(wcg, cache);
    EXPECT_EQ(cold.members, warm.members);
    EXPECT_EQ(cold.proven_minimum, warm.proven_minimum);

    // Unchanged version: memo hit must return the identical cover.
    const scheduling_set_result hit = min_scheduling_set(wcg, cache);
    EXPECT_EQ(hit.members, warm.members);

    // After each refinement the cached path must agree with a cold solve.
    bool progress = true;
    while (progress) {
        progress = false;
        for (const op_id o : g.all_ops()) {
            if (wcg.refinable(o)) {
                wcg.refine_op(o);
                progress = true;
                break;
            }
        }
        const scheduling_set_result a = min_scheduling_set(wcg);
        const scheduling_set_result b = min_scheduling_set(wcg, cache);
        EXPECT_EQ(a.members, b.members);
        EXPECT_EQ(a.proven_minimum, b.proven_minimum);
    }
}

} // namespace
} // namespace mwl
