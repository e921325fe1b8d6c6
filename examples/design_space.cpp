// Design-space exploration: Pareto sweep + RTL costing.
//
// The workflow a designer would actually run on a multiple-wordlength
// kernel: sweep the latency constraint to get the area/latency frontier
// (core/pareto.hpp), then price each point at the register-transfer level
// including registers and muxes (rtl/netlist.hpp).
//
// Build & run:  ./build/examples/design_space

#include "core/pareto.hpp"
#include "dfg/analysis.hpp"
#include "model/hardware_model.hpp"
#include "report/table.hpp"
#include "rtl/netlist.hpp"
#include "tgff/generator.hpp"

#include <iostream>

int main()
{
    using namespace mwl;

    // A 14-operation random kernel stands in for "your DSP block".
    rng random(0xD5921);
    tgff_options gopt;
    gopt.n_ops = 14;
    const sequencing_graph graph = generate_tgff(gopt, random);
    const sonic_model model;

    pareto_options popt;
    popt.max_slack = 0.6;
    const auto frontier = pareto_sweep(graph, model, popt);

    table t("Design space of a 14-op kernel (areas in model units)");
    t.header({"lambda", "latency", "FU area", "FU+reg+mux", "#FUs",
              "#regs"});
    for (const pareto_point& p : frontier) {
        const rtl_netlist net = build_rtl(graph, model, p.path);
        t.row({table::num(p.lambda), table::num(p.latency),
               table::num(p.area, 0), table::num(net.total_area(), 0),
               table::num(static_cast<int>(p.path.instances.size())),
               table::num(static_cast<int>(net.registers.size()))});
    }
    t.print(std::cout);

    std::cout << "\nEach row is one non-dominated allocation; pick by the "
                 "latency budget\nand read off the full RTL cost.\n";
    return 0;
}
