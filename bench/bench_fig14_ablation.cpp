/**
 * @file
 * Figure 14: ablation of the three optimization passes, averaged over
 * F1/G1/K1 under the Fez noise model.
 *
 *   Opt1     serialization only — each local commute unitary costed as a
 *            generic two-level synthesis (modeled with identity padding
 *            so the circuit stays executable; see DESIGN.md),
 *   Opt1+2   + the Lemma-2 equivalent decomposition,
 *   Opt1+3   + eliminating two variables (still generic synthesis),
 *   Opt1+2+3 everything.
 *
 * Expected shape (paper): Opt2 buys the big depth cut (~5.7x) and a
 * ~2.4x success gain; Opt3 adds another ~1.3-1.4x of both.
 */

#include "common.hpp"

using namespace chocoq;
using namespace chocoq::bench;

int
main(int argc, char **argv)
{
    const BenchConfig cfg =
        parseArgs(argc, argv, "bench_fig14_ablation",
                  "Fig. 14: optimization-pass ablation");
    banner("Figure 14", cfg);

    const std::vector<problems::Scale> scales{
        problems::Scale::F1, problems::Scale::G1, problems::Scale::K1};
    const auto noise = device::noiseOf(device::fez());

    struct Config
    {
        const char *label;
        bool lemma2;
        int eliminate;
    };
    const Config configs[4] = {{"Opt1", false, 0},
                               {"Opt1+3", false, 2},
                               {"Opt1+2", true, 0},
                               {"Opt1+2+3", true, 2}};

    Table table({"Config", "Avg depth", "Avg success (%)",
                 "Depth vs Opt1", "Success vs Opt1"});
    double depth_avg[4] = {0, 0, 0, 0};
    double succ_avg[4] = {0, 0, 0, 0};

    for (int c = 0; c < 4; ++c) {
        int count = 0;
        for (auto scale : scales) {
            const auto p = problems::makeCase(scale, 0);
            const auto exact = model::solveExact(p);
            if (!exact.feasible)
                continue;
            auto opts = chocoOptions(cfg, 1, configs[c].eliminate);
            opts.genericSynthesisPadding = !configs[c].lemma2;
            opts.engine.noise = noise;
            opts.engine.shots = cfg.shots;
            opts.engine.trajectories = cfg.trajectories;
            const auto r = runCase(core::ChocoQSolver(opts), p, exact);
            depth_avg[c] += r.outcome.basisDepth;
            succ_avg[c] += r.stats.successRate;
            ++count;
        }
        depth_avg[c] /= count;
        succ_avg[c] /= count;
    }

    for (int c = 0; c < 4; ++c) {
        table.addRow(
            {configs[c].label, fmtNum(depth_avg[c], 0),
             fmtPct(succ_avg[c], 2),
             fmtNum(depth_avg[0] / std::max(depth_avg[c], 1.0), 2) + "x",
             fmtNum(succ_avg[c] / std::max(succ_avg[0], 1e-4), 2) + "x"});
    }
    table.print();
    return 0;
}
