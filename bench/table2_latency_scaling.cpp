// Table 2: execution time for a corpus of 9-operation sequencing graphs as
// the latency constraint is relaxed (lambda/lambda_min in 1.00..1.15),
// heuristic vs ILP.
//
// Expected shape (the paper's headline scaling result): the ILP's time
// grows rapidly with the relaxation -- its variable count scales with
// lambda (2:07 -> 4:05 -> 15:55 -> >30:00 for 200 graphs on the paper's
// Pentium III) -- while the heuristic's time does not scale with the
// latency constraint at all.
//
// Default: 10 graphs. Paper corpus: --graphs 200. --max-size N caps the
// graph size at min(9, N) operations (smoke runs), still timing both the
// heuristic and the ILP.

#include "bench_common.hpp"
#include "core/dpalloc.hpp"
#include "ilp/formulation.hpp"
#include "support/timer.hpp"
#include "tgff/corpus.hpp"

#include <algorithm>
#include <iostream>
#include <vector>

int main(int argc, char** argv)
{
    using namespace mwl;
    bench::bench_options opt =
        bench::parse_options(argc, argv, "table2_latency_scaling");
    if (opt.graphs == 25) {
        opt.graphs = 10; // ILP-heavy bench
    }

    const sonic_model model;
    // The paper's Table 2 problem size, unless --max-size caps it.
    const std::size_t n_ops =
        opt.max_size > 0 ? std::min<std::size_t>(9, opt.max_size) : 9;
    const auto corpus = make_corpus(n_ops, opt.graphs, model, opt.seed);

    table t("Table 2: total execution time for " +
            std::to_string(opt.graphs) + " " + std::to_string(n_ops) +
            "-operation graphs");
    t.header({"lambda/lambda_min", "heuristic ms", "ILP s", "mean ILP vars",
              "ILP solved"});

    for (const double factor : {1.00, 1.05, 1.10, 1.15}) {
        double heur_s = 0.0;
        double ilp_s = 0.0;
        double vars = 0.0;
        std::size_t solved = 0;
        for (const corpus_entry& e : corpus) {
            const int lambda = relaxed_lambda(e.lambda_min, factor - 1.0);

            stopwatch heur_clock;
            static_cast<void>(dpalloc(e.graph, model, lambda));
            heur_s += heur_clock.seconds();

            stopwatch ilp_clock;
            mip_options mopt;
            mopt.time_limit_seconds = opt.ilp_time_limit;
            const ilp_result best = solve_ilp(e.graph, model, lambda, mopt);
            ilp_s += ilp_clock.seconds();
            vars += static_cast<double>(best.n_variables);
            solved += best.status == mip_status::optimal ? 1u : 0u;
        }
        t.row({table::num(factor, 2), table::num(heur_s * 1e3, 2),
               table::num(ilp_s, 2),
               table::num(vars / static_cast<double>(corpus.size()), 0),
               table::num(static_cast<int>(solved)) + "/" +
                   table::num(static_cast<int>(corpus.size()))});
    }
    bench::emit(t, opt);
    std::cout << "\n(paper: heuristic flat at ~3.5s/200 graphs, ILP 2:07 ->"
                 " >30:00 as the constraint relaxes;\n ILP seconds are"
                 " truncated wherever the per-instance time limit hit)\n";
    return 0;
}
