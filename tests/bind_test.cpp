// Unit tests for src/bind: BindSelect covering behaviour, Eqn. 4
// feasibility of emitted cliques, the growth pass, cheapest-resource
// wordlength selection and binding/schedule consistency.

#include "oracle.hpp"

#include "bind/bind_select.hpp"
#include "model/hardware_model.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tgff/generator.hpp"
#include "wcg/wcg.hpp"

#include "test_seed.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mwl {
namespace {

sequencing_graph two_mults_graph()
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8), "o1");
    g.add_operation(op_shape::multiplier(20, 18), "o2");
    return g;
}

/// Binding invariants that hold for every valid bind_select output.
void expect_binding_valid(const wordlength_compatibility_graph& wcg,
                          const binding& b, const std::vector<int>& start,
                          const std::vector<int>& lat)
{
    const sequencing_graph& g = wcg.graph();
    std::vector<int> covered(g.size(), 0);
    double area = 0.0;
    for (const binding_clique& k : b.cliques) {
        area += wcg.area(k.resource);
        for (const op_id o : k.ops) {
            ++covered[o.value()];
            EXPECT_TRUE(wcg.compatible(o, k.resource)); // Eqn. 4
        }
        // pairwise chain (no time overlap at scheduled latencies)
        for (std::size_t i = 0; i < k.ops.size(); ++i) {
            for (std::size_t j = i + 1; j < k.ops.size(); ++j) {
                const op_id a = k.ops[i];
                const op_id c = k.ops[j];
                const bool disjoint =
                    start[a.value()] + lat[a.value()] <= start[c.value()] ||
                    start[c.value()] + lat[c.value()] <= start[a.value()];
                EXPECT_TRUE(disjoint);
            }
        }
    }
    for (const int count : covered) {
        EXPECT_EQ(count, 1);
    }
    EXPECT_DOUBLE_EQ(area, b.total_area);
}

TEST(BindSelect, SerializedMultsShareTheBigMultiplier)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    // Hand schedule: o1 at 0..5, o2 at 5..10 (upper bounds 5 and 5).
    const std::vector<int> start{0, 5};
    const std::vector<int> lat{5, 5};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 1u);
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(20, 18));
    EXPECT_DOUBLE_EQ(b.total_area, 360.0);
}

TEST(BindSelect, OverlappingMultsNeedTwoResources)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 0};
    const std::vector<int> lat{5, 5};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 2u);
    // Wordlength selection: o1's own resource is the cheap one.
    double area = 0.0;
    for (const auto& k : b.cliques) {
        area += wcg.area(k.resource);
    }
    EXPECT_DOUBLE_EQ(area, 360.0 + 96.0); // mul20x18 + mul12x8
}

TEST(BindSelect, CheapestReassignmentPicksOwnShapes)
{
    // A lone small op must end on its own (cheapest) resource even though
    // the big resource also covers it.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8));
    g.add_operation(op_shape::multiplier(20, 18));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 10};
    const std::vector<int> lat{3, 5}; // native latencies, disjoint anyway
    const binding b = bind_select(wcg, start, lat);
    // Chain {o1, o2} exists (disjoint in time) and one resource covers
    // both -> single clique on the 20x18.
    ASSERT_EQ(b.cliques.size(), 1u);
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(20, 18));
}

TEST(BindSelect, ReassignCheapestDisabledKeepsSelectionResource)
{
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(12, 8));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0};
    const std::vector<int> lat{5};
    bind_options opts;
    opts.reassign_cheapest = false;
    const binding b = bind_select(wcg, start, lat, opts);
    ASSERT_EQ(b.cliques.size(), 1u);
    // Ratio rule: |p|/cost favours the small resource already (1/96 >
    // 1/360), so even unreassigned it picks mul12x8.
    EXPECT_EQ(wcg.resource(b.cliques[0].resource),
              op_shape::multiplier(12, 8));
}

TEST(BindSelect, MixedKindsNeverShare)
{
    sequencing_graph g;
    g.add_operation(op_shape::adder(16));
    g.add_operation(op_shape::multiplier(8, 8));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 2};
    const std::vector<int> lat{2, 2};
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    EXPECT_EQ(b.cliques.size(), 2u);
}

TEST(BindSelect, LongSerialChainCollapsesToOneAdder)
{
    sequencing_graph g;
    op_id prev = g.add_operation(op_shape::adder(10));
    for (int i = 0; i < 5; ++i) {
        const op_id next = g.add_operation(op_shape::adder(4 + 2 * i));
        g.add_dependency(prev, next);
        prev = next;
    }
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    std::vector<int> start;
    std::vector<int> lat;
    for (std::size_t i = 0; i < g.size(); ++i) {
        start.push_back(static_cast<int>(2 * i));
        lat.push_back(2);
    }
    const binding b = bind_select(wcg, start, lat);
    expect_binding_valid(wcg, b, start, lat);
    ASSERT_EQ(b.cliques.size(), 1u);
    // Shared adder must cover the widest member (add12).
    EXPECT_EQ(wcg.resource(b.cliques[0].resource), op_shape::adder(12));
    EXPECT_EQ(b.cliques[0].ops.size(), 6u);
}

TEST(BindSelect, GrowthPassMergesCompatibleCliques)
{
    // Construct a schedule where greedy cover without growth leaves
    // mergeable cliques: three pairwise-chainable mults of equal shape
    // plus one odd-shaped op interleaved.
    sequencing_graph g;
    g.add_operation(op_shape::multiplier(8, 8));  // 0
    g.add_operation(op_shape::multiplier(8, 8));  // 1
    g.add_operation(op_shape::multiplier(8, 8));  // 2
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, 2, 4};
    const std::vector<int> lat{2, 2, 2};
    bind_options no_growth;
    no_growth.enable_growth = false;
    const binding with_growth = bind_select(wcg, start, lat);
    const binding without = bind_select(wcg, start, lat, no_growth);
    expect_binding_valid(wcg, with_growth, start, lat);
    expect_binding_valid(wcg, without, start, lat);
    // All three ops are one chain on one mul8x8 either way here, but the
    // growth version must never be worse.
    EXPECT_LE(with_growth.total_area, without.total_area);
    EXPECT_EQ(with_growth.cliques.size(), 1u);
}

TEST(BindSelect, GrowthNeverIncreasesArea)
{
    rng random(77);
    for (int trial = 0; trial < 20; ++trial) {
        tgff_options opts;
        opts.n_ops = 10;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const wordlength_compatibility_graph wcg(g, model);
        const incomplete_schedule_result sched = schedule_incomplete(wcg);
        const std::vector<int> upper = wcg.latency_upper_bounds();
        bind_options no_growth;
        no_growth.enable_growth = false;
        const binding grown = bind_select(wcg, sched.start, upper);
        const binding plain = bind_select(wcg, sched.start, upper, no_growth);
        expect_binding_valid(wcg, grown, sched.start, upper);
        expect_binding_valid(wcg, plain, sched.start, upper);
        EXPECT_LE(grown.total_area, plain.total_area + 1e-9)
            << "trial " << trial;
    }
}

TEST(BindSelect, UnscheduledOpThrows)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0, -1};
    const std::vector<int> lat{5, 5};
    EXPECT_THROW(static_cast<void>(bind_select(wcg, start, lat)),
                 precondition_error);
}

TEST(BindSelect, SizeMismatchThrows)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<int> start{0};
    const std::vector<int> lat{5, 5};
    EXPECT_THROW(static_cast<void>(bind_select(wcg, start, lat)),
                 precondition_error);
}

TEST(BindSelect, EmptyGraphYieldsEmptyBinding)
{
    sequencing_graph g;
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const binding b = bind_select(wcg, {}, {});
    EXPECT_TRUE(b.cliques.empty());
    EXPECT_DOUBLE_EQ(b.total_area, 0.0);
}

TEST(BindSelect, RandomSchedulesAlwaysProduceValidBindings)
{
    rng random(4242);
    for (int trial = 0; trial < 30; ++trial) {
        tgff_options opts;
        opts.n_ops = 3 + static_cast<std::size_t>(trial) % 12;
        const sequencing_graph g = generate_tgff(opts, random);
        const sonic_model model;
        const wordlength_compatibility_graph wcg(g, model);
        const incomplete_schedule_result sched = schedule_incomplete(wcg);
        const std::vector<int> upper = wcg.latency_upper_bounds();
        const binding b = bind_select(wcg, sched.start, upper);
        expect_binding_valid(wcg, b, sched.start, upper);
    }
}

void expect_same_binding(const binding& a, const binding& b)
{
    ASSERT_EQ(a.cliques.size(), b.cliques.size());
    for (std::size_t k = 0; k < a.cliques.size(); ++k) {
        EXPECT_EQ(a.cliques[k].resource, b.cliques[k].resource)
            << "clique " << k;
        EXPECT_EQ(a.cliques[k].ops, b.cliques[k].ops) << "clique " << k;
    }
    EXPECT_EQ(a.clique_of_op, b.clique_of_op);
    EXPECT_EQ(a.total_area, b.total_area);
}

/// A large-graph preset WCG (tgff/generator.hpp) at |O| = n.
sequencing_graph preset_graph(std::size_t n, std::uint64_t seed)
{
    rng random(seed + n);
    return generate_tgff(large_graph_preset(n), random);
}

binding bind_scheduled(const wordlength_compatibility_graph& wcg,
                       const bind_options& options,
                       bind_scratch* scratch = nullptr)
{
    const incomplete_schedule_result sched = schedule_incomplete(wcg);
    return bind_select(wcg, sched.start, wcg.latency_upper_bounds(),
                       options, scratch);
}

TEST(BindSelect, CachedChainsMatchReferenceOnRefinedPresetGraphs)
{
    // The length-memo heap must pick the very same clique every round as
    // the oracle's recompute-everything BindSelect, on real DPAlloc inputs:
    // preset graphs as scheduled, then after §2.4 refinements deleted H
    // edges.
    const std::uint64_t seed =
        testing::env_seed("MWL_BIND_SEED", large_graph_seed_base);
    MWL_TRACE_SEED("MWL_BIND_SEED", seed);
    rng pick(seed);
    const sonic_model model;
    bind_scratch scratch;
    for (const std::size_t n :
         {std::size_t{50}, std::size_t{120}, std::size_t{200},
          std::size_t{300}}) {
        SCOPED_TRACE("|O| = " + std::to_string(n));
        const sequencing_graph g = preset_graph(n, seed);
        wordlength_compatibility_graph wcg(g, model);
        for (int step = 0; step < 4; ++step) {
            SCOPED_TRACE("after " + std::to_string(step) + " refinements");
            const binding cached = bind_scheduled(wcg, {}, &scratch);
            expect_same_binding(
                cached, oracle::bind_select(wcg, schedule_incomplete(wcg).start,
                                            wcg.latency_upper_bounds()));
            // Refine a random refinable operation, as DPAlloc's §2.4 step
            // does, so the next round sees a sparser H.
            std::vector<op_id> refinable;
            for (const op_id o : g.all_ops()) {
                if (wcg.refinable(o)) {
                    refinable.push_back(o);
                }
            }
            if (refinable.empty()) {
                break;
            }
            static_cast<void>(wcg.refine_op(
                refinable[pick.uniform(0, refinable.size() - 1)]));
        }
    }
}

TEST(BindSelect, ReusedScratchMatchesFreshScratch)
{
    // bind_scratch carries buffers, never state: a large bind, a small one
    // and the large one again through one scratch must each equal a bind
    // with fresh buffers.
    const sonic_model model;
    const sequencing_graph big = preset_graph(300, large_graph_seed_base);
    const sequencing_graph small = preset_graph(50, large_graph_seed_base);
    const wordlength_compatibility_graph big_wcg(big, model);
    const wordlength_compatibility_graph small_wcg(small, model);
    const binding big_fresh = bind_scheduled(big_wcg, {});
    const binding small_fresh = bind_scheduled(small_wcg, {});
    bind_scratch scratch;
    expect_same_binding(bind_scheduled(big_wcg, {}, &scratch), big_fresh);
    expect_same_binding(bind_scheduled(small_wcg, {}, &scratch),
                        small_fresh);
    expect_same_binding(bind_scheduled(big_wcg, {}, &scratch), big_fresh);
}

TEST(CheapestCommonResource, FindsJoinWhenPresent)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::multiplier(20, 4));
    const op_id b = g.add_operation(op_shape::multiplier(6, 18));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<op_id> ops{a, b};
    const res_id r = cheapest_common_resource(wcg, ops);
    ASSERT_TRUE(r.is_valid());
    EXPECT_EQ(wcg.resource(r), op_shape::multiplier(20, 6));
}

TEST(CheapestCommonResource, InvalidWhenKindsDiffer)
{
    sequencing_graph g;
    const op_id a = g.add_operation(op_shape::adder(8));
    const op_id b = g.add_operation(op_shape::multiplier(6, 6));
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    const std::vector<op_id> ops{a, b};
    EXPECT_FALSE(cheapest_common_resource(wcg, ops).is_valid());
}

TEST(FinalizeBinding, RejectsDoubleBinding)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    binding b;
    binding_clique k1;
    k1.resource = wcg.resources_for(op_id(0)).back();
    k1.ops = {op_id(0), op_id(0)};
    b.cliques.push_back(k1);
    EXPECT_THROW(finalize_binding(b, g.size(), wcg), precondition_error);
}

TEST(FinalizeBinding, RejectsUncoveredOp)
{
    const sequencing_graph g = two_mults_graph();
    const sonic_model model;
    const wordlength_compatibility_graph wcg(g, model);
    binding b;
    binding_clique k1;
    k1.resource = wcg.resources_for(op_id(0)).front();
    k1.ops = {op_id(0)};
    b.cliques.push_back(k1);
    EXPECT_THROW(finalize_binding(b, g.size(), wcg), precondition_error);
}

} // namespace
} // namespace mwl
