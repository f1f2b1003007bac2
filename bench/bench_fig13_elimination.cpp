/**
 * @file
 * Figure 13: variable elimination — (a) transpiled circuit depth after
 * eliminating 0-3 variables on F2/G2/K2; (b) success rate under the
 * IBM noise models for the same sweep.
 *
 * Expected shape (paper): the first eliminations buy large depth
 * reductions and noisy-success gains (F2: 2.7x depth, ~10x success for
 * one variable); returns diminish once most non-zeros are gone; KPP
 * gains least (uniform support distribution).
 */

#include "common.hpp"

using namespace chocoq;
using namespace chocoq::bench;

int
main(int argc, char **argv)
{
    const BenchConfig cfg =
        parseArgs(argc, argv, "bench_fig13_elimination",
                  "Fig. 13: variable-elimination depth & success sweep");
    banner("Figure 13(a): circuit depth vs #eliminated variables", cfg);

    const std::vector<problems::Scale> scales{
        problems::Scale::F2, problems::Scale::G2, problems::Scale::K2};
    const int max_elim = 3;

    std::vector<std::vector<int>> depths(
        scales.size(), std::vector<int>(max_elim + 1, 0));
    Table depth_table({"Scale", "e=0", "e=1", "e=2", "e=3"});
    for (std::size_t sc = 0; sc < scales.size(); ++sc) {
        const auto p = problems::makeCase(scales[sc], 0);
        std::vector<std::string> row{problems::scaleName(scales[sc])};
        for (int e = 0; e <= max_elim; ++e) {
            auto opts = chocoOptions(cfg, 1, e);
            opts.engine.opt.maxIterations = 2;
            const auto run = core::ChocoQSolver(opts).solve(p);
            depths[sc][e] = run.basisDepth;
            row.push_back(std::to_string(run.basisDepth));
        }
        depth_table.addRow(row);
    }
    depth_table.print();

    banner("Figure 13(b): noisy success rate vs #eliminated variables",
           cfg);
    const auto noise = device::noiseOf(device::fez());
    Table succ_table({"Scale", "e=0 (%)", "e=1 (%)", "e=2 (%)",
                      "e=3 (%)"});
    for (std::size_t sc = 0; sc < scales.size(); ++sc) {
        // G2's un-eliminated circuit is the deepest of the sweep; its
        // noisy trajectories are full-mode only.
        if (!cfg.full && scales[sc] == problems::Scale::G2)
            continue;
        const auto p = problems::makeCase(scales[sc], 0);
        const auto exact = model::solveExact(p);
        if (!exact.feasible)
            continue;
        std::vector<std::string> row{problems::scaleName(scales[sc])};
        for (int e = 0; e <= max_elim; ++e) {
            auto opts = chocoOptions(cfg, 1, e);
            opts.engine.noise = noise;
            opts.engine.shots = cfg.full ? cfg.shots : 512;
            opts.engine.trajectories = cfg.full ? cfg.trajectories : 16;
            const auto r = runCase(core::ChocoQSolver(opts), p, exact);
            row.push_back(fmtPct(r.stats.successRate, 2));
        }
        succ_table.addRow(row);
    }
    succ_table.print();
    return 0;
}
