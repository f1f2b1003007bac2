#include "solvers/penalty.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/circuits.hpp"
#include "core/eliminate.hpp"

namespace chocoq::solvers
{

namespace
{

using core::SubRun;

/** Variables sorted by how many penalty monomials they appear in. */
std::vector<int>
hotspotOrder(const model::Polynomial &poly, int n)
{
    std::vector<int> count(n, 0);
    for (const auto &[vars, c] : poly.terms())
        for (int v : vars)
            ++count[v];
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return count[a] > count[b]; });
    return order;
}

} // namespace

PenaltyQaoaSolver::PenaltyQaoaSolver(PenaltyOptions opts)
    : opts_(std::move(opts))
{
    CHOCOQ_ASSERT(opts_.layers >= 1, "penalty QAOA needs >= 1 layer");
    CHOCOQ_ASSERT(opts_.freeze >= 0, "negative freeze count");
}

core::SolverOutcome
PenaltyQaoaSolver::solve(const model::Problem &p) const
{
    Timer compile_timer;
    const model::Polynomial penalty = p.penaltyPolynomial(opts_.lambda);
    const int n = p.numVars();
    const int freeze = std::min(opts_.freeze, n - 1);

    // FrozenQubits: fix the most-connected (hotspot) variables and run one
    // sub-circuit per assignment.
    const std::vector<int> order = hotspotOrder(penalty, n);
    std::vector<int> frozen(order.begin(), order.begin() + freeze);
    std::sort(frozen.begin(), frozen.end());
    std::vector<int> kept;
    std::vector<int> new_of(n, -1);
    for (int i = 0; i < n; ++i) {
        if (!std::binary_search(frozen.begin(), frozen.end(), i)) {
            new_of[i] = static_cast<int>(kept.size());
            kept.push_back(i);
        }
    }
    const int k = static_cast<int>(kept.size());
    // Freezing is elimination by another rule: lift like Choco-Q does.
    const core::EliminationPlan plan{frozen, kept};

    std::vector<SubRun> runs;
    for (Basis assign = 0; assign < (Basis{1} << freeze); ++assign) {
        model::Polynomial sub = penalty;
        for (int j = 0; j < freeze; ++j)
            sub = sub.substitute(frozen[j], getBit(assign, j));
        auto f = std::make_shared<model::Polynomial>(sub.remapped(new_of));
        auto table = std::make_shared<const std::vector<double>>(
            f->tabulate(k, opts_.engine.checkpoint));

        SubRun run;
        run.numQubits = k;
        run.costTable = table;
        run.build = [k, f](const std::vector<double> &theta) {
            circuit::Circuit c(k);
            for (int q = 0; q < k; ++q)
                c.h(q);
            const std::size_t layers = theta.size() / 2;
            for (std::size_t l = 0; l < layers; ++l) {
                core::appendObjectivePhase(c, *f, theta[2 * l]);
                for (int q = 0; q < k; ++q)
                    c.rx(q, 2.0 * theta[2 * l + 1]);
            }
            return c;
        };
        run.evolve = [k, table](sim::StateVector &state,
                                const std::vector<double> &theta) {
            state.reset(0);
            constexpr double kInvSqrt2 = 0.70710678118654752440;
            for (int q = 0; q < k; ++q)
                state.apply1q(q, kInvSqrt2, kInvSqrt2, kInvSqrt2,
                              -kInvSqrt2);
            const std::size_t layers = theta.size() / 2;
            for (std::size_t l = 0; l < layers; ++l) {
                state.applyPhaseTable(*table, theta[2 * l]);
                const double b = theta[2 * l + 1];
                const sim::Cplx cc{std::cos(b), 0.0};
                const sim::Cplx ms{0.0, -std::sin(b)};
                for (int q = 0; q < k; ++q)
                    state.apply1q(q, cc, ms, ms, cc);
            }
        };
        run.lift = [plan, assign](Basis x) {
            return core::liftToFull(x, plan, assign);
        };
        runs.push_back(std::move(run));
    }
    const double plan_seconds = compile_timer.seconds();

    core::EngineOptions engine = opts_.engine;
    if (engine.theta0.empty()) {
        double g0 = 0.1, b0 = 0.6;
        if (opts_.warmStart) {
            // Red-QAOA-style warm start: coarse single-layer grid search,
            // polled per grid point so a cancel or deadline stops it.
            double best = 0.0;
            bool first = true;
            sim::StateVector state(k);
            for (double g : {0.05, 0.1, 0.2, 0.4}) {
                for (double b : {0.2, 0.4, 0.6, 0.9}) {
                    if (engine.checkpoint)
                        engine.checkpoint();
                    double acc = 0.0;
                    for (const auto &run : runs) {
                        state.resizeScratch(run.numQubits);
                        run.evolve(state, {g, b});
                        acc += state.expectationTable(*run.costTable);
                    }
                    if (first || acc < best) {
                        first = false;
                        best = acc;
                        g0 = g;
                        b0 = b;
                    }
                }
            }
        }
        for (int l = 0; l < opts_.layers; ++l) {
            engine.theta0.push_back(g0);
            engine.theta0.push_back(b0);
        }
    }

    core::SolverOutcome out = core::runQaoa(runs, engine);
    out.compileSeconds += plan_seconds;
    return out;
}

} // namespace chocoq::solvers
