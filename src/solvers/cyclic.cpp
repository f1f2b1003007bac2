#include "solvers/cyclic.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/circuits.hpp"
#include "core/commute.hpp"
#include "model/exact.hpp"

namespace chocoq::solvers
{

CyclicQaoaSolver::CyclicQaoaSolver(CyclicOptions opts)
    : opts_(std::move(opts))
{
    CHOCOQ_ASSERT(opts_.layers >= 1, "cyclic QAOA needs >= 1 layer");
}

std::vector<std::pair<int, int>>
CyclicQaoaSolver::mixerPairs(const model::Problem &p)
{
    std::vector<std::pair<int, int>> pairs;
    for (const auto &con : p.constraints()) {
        if (!con.isSummationFormat())
            continue; // the cyclic Hamiltonian cannot encode this row
        std::vector<int> vars;
        for (std::size_t i = 0; i < con.coeffs.size(); ++i)
            if (con.coeffs[i] != 0)
                vars.push_back(static_cast<int>(i));
        for (std::size_t i = 0; i + 1 < vars.size(); ++i)
            pairs.emplace_back(vars[i], vars[i + 1]);
    }
    return pairs;
}

core::SolverOutcome
CyclicQaoaSolver::solve(const model::Problem &p) const
{
    Timer compile_timer;
    const int n = p.numVars();
    const auto init = model::findFeasible(p);
    if (!init)
        CHOCOQ_FATAL("problem " << p.name()
                     << " has no feasible assignment");
    const Basis x0 = *init;
    auto pairs = std::make_shared<std::vector<std::pair<int, int>>>(
        mixerPairs(p));
    // XY(a, b, beta) is exp(-i 2 beta Hc(u)) for u = e_a - e_b, so the
    // fast path runs each mixer layer as one commute layer at 2 beta.
    auto terms = std::make_shared<std::vector<core::CommuteTerm>>();
    for (const auto &[a, b] : *pairs) {
        std::vector<int> u(n, 0);
        u[a] = 1;
        u[b] = -1;
        terms->push_back(core::makeCommuteTerm(u));
    }
    auto f = std::make_shared<model::Polynomial>(p.minimizedObjective());
    // The cyclic design is a hard-constraint method: its optimizer chases
    // the raw objective and trusts the XY mixer to conserve constraints.
    // On rows it cannot encode, that trust is misplaced — the optimizer
    // happily walks into the infeasible region, which is exactly the
    // leakage Table II reports for this baseline on FLP/GCP.
    auto phase_table = std::make_shared<const std::vector<double>>(
        f->tabulate(n, opts_.engine.checkpoint));

    core::SubRun run;
    run.numQubits = n;
    run.costTable = phase_table;
    run.build = [n, x0, f, pairs](const std::vector<double> &theta) {
        circuit::Circuit c(n);
        core::appendBasisPreparation(c, x0);
        const std::size_t layers = theta.size() / 2;
        for (std::size_t l = 0; l < layers; ++l) {
            core::appendObjectivePhase(c, *f, theta[2 * l]);
            for (const auto &[a, b] : *pairs)
                c.xy(a, b, theta[2 * l + 1]);
        }
        return c;
    };
    run.evolve = [x0, phase_table, terms](sim::StateVector &state,
                                          const std::vector<double> &theta) {
        state.reset(x0);
        const std::size_t layers = theta.size() / 2;
        for (std::size_t l = 0; l < layers; ++l) {
            state.applyPhaseTable(*phase_table, theta[2 * l]);
            core::applyCommuteLayer(state, *terms, 2.0 * theta[2 * l + 1]);
        }
    };
    run.lift = [](Basis x) { return x; };
    const double plan_seconds = compile_timer.seconds();

    core::EngineOptions engine = opts_.engine;
    if (engine.theta0.empty()) {
        std::vector<double> wide;
        for (int l = 0; l < opts_.layers; ++l) {
            engine.theta0.push_back(0.2);
            engine.theta0.push_back(0.5);
            wide.push_back(0.7);
            wide.push_back(1.6);
        }
        engine.extraStarts = {std::move(wide)};
    }

    core::SolverOutcome out = core::runQaoa({run}, engine);
    out.compileSeconds += plan_seconds;
    return out;
}

} // namespace chocoq::solvers
