/**
 * @file
 * Figure 10: success rate and in-constraints rate on the three IBM
 * platforms (Fez, Osaka, Sherbrooke), reproduced here with per-device
 * noise-trajectory simulation of the transpiled circuits on the small
 * scales F1, G1, K1.
 *
 * Expected shape (paper): all methods degrade vs the noise-free
 * simulator; Choco-Q keeps the best success and in-constraints rates
 * (average improvements of ~2.65x and ~2.43x); Fez (native CZ, 99.7%)
 * beats the two ECR devices; G1 (12 qubits) suffers most.
 */

#include "common.hpp"

using namespace chocoq;
using namespace chocoq::bench;

int
main(int argc, char **argv)
{
    const BenchConfig cfg =
        parseArgs(argc, argv, "bench_fig10_hardware",
                  "Fig. 10: success & in-constraints on device models");
    banner("Figure 10", cfg);

    const std::vector<problems::Scale> scales{
        problems::Scale::F1, problems::Scale::G1, problems::Scale::K1};

    Table table({"Device", "Case", "Metric", "Penalty", "Cyclic", "HEA",
                 "Choco-Q"});
    double improv_succ = 0.0, improv_cons = 0.0;
    int improv_count = 0;

    for (const auto &dev : device::allDevices()) {
        const auto noise = device::noiseOf(dev);
        for (auto scale : scales) {
            const auto p = problems::makeCase(scale, 0);
            const auto exact = model::solveExact(p);
            if (!exact.feasible)
                continue;

            auto pen_opts = penaltyOptions(cfg);
            pen_opts.engine.noise = noise;
            pen_opts.engine.shots = cfg.shots;
            pen_opts.engine.trajectories = cfg.trajectories;
            auto cyc_opts = cyclicOptions(cfg);
            cyc_opts.engine = pen_opts.engine;
            cyc_opts.engine.opt = cyc_opts.engine.opt;
            auto hea_opts = heaOptions(cfg);
            hea_opts.engine.noise = noise;
            hea_opts.engine.shots = cfg.shots;
            hea_opts.engine.trajectories = cfg.trajectories;
            auto choco_opts = chocoOptions(cfg);
            choco_opts.engine.noise = noise;
            choco_opts.engine.shots = cfg.shots;
            choco_opts.engine.trajectories = cfg.trajectories;

            const solvers::PenaltyQaoaSolver penalty(pen_opts);
            const solvers::CyclicQaoaSolver cyclic(cyc_opts);
            const solvers::HeaSolver hea(hea_opts);
            const core::ChocoQSolver choco(choco_opts);
            const core::Solver *solver_list[4] = {&penalty, &cyclic, &hea,
                                                  &choco};
            metrics::RunStats stats[4];
            for (int s = 0; s < 4; ++s)
                stats[s] = runCase(*solver_list[s], p, exact).stats;

            table.addRow({dev.name, problems::scaleName(scale),
                          "Success (%)",
                          fmtPct(stats[0].successRate, 2),
                          fmtPct(stats[1].successRate, 2),
                          fmtPct(stats[2].successRate, 2),
                          fmtPct(stats[3].successRate, 2)});
            table.addRow({"", "", "In-cons. (%)",
                          fmtPct(stats[0].inConstraintsRate, 2),
                          fmtPct(stats[1].inConstraintsRate, 2),
                          fmtPct(stats[2].inConstraintsRate, 2),
                          fmtPct(stats[3].inConstraintsRate, 2)});

            const double best_base_succ =
                std::max({stats[0].successRate, stats[1].successRate,
                          stats[2].successRate, 1e-4});
            const double best_base_cons =
                std::max({stats[0].inConstraintsRate,
                          stats[1].inConstraintsRate,
                          stats[2].inConstraintsRate, 1e-4});
            improv_succ += stats[3].successRate / best_base_succ;
            improv_cons += stats[3].inConstraintsRate / best_base_cons;
            ++improv_count;
        }
        table.addRule();
    }
    table.print();
    if (improv_count > 0) {
        std::cout << "Choco-Q avg improvement over best baseline: success "
                  << fmtNum(improv_succ / improv_count, 2)
                  << "x, in-constraints "
                  << fmtNum(improv_cons / improv_count, 2) << "x\n";
    }
    return 0;
}
