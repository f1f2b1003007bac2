#include "solvers/hea.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace chocoq::solvers
{

HeaSolver::HeaSolver(HeaOptions opts) : opts_(std::move(opts))
{
    CHOCOQ_ASSERT(opts_.layers >= 1, "HEA needs >= 1 entangler block");
}

core::SolverOutcome
HeaSolver::solve(const model::Problem &p) const
{
    Timer compile_timer;
    const int n = p.numVars();
    const int layers = opts_.layers;
    auto cost_table = std::make_shared<const std::vector<double>>(
        p.penaltyPolynomial(opts_.lambda)
            .tabulate(n, opts_.engine.checkpoint));

    // Parameter layout: block b in [0, layers], qubit q:
    // theta[2*(b*n + q)] = RY angle, theta[2*(b*n + q) + 1] = RZ angle.
    core::SubRun run;
    run.numQubits = n;
    run.costTable = cost_table;
    run.build = [n, layers](const std::vector<double> &theta) {
        circuit::Circuit c(n);
        auto rot_layer = [&](int block) {
            for (int q = 0; q < n; ++q) {
                c.ry(q, theta[2 * (block * n + q)]);
                c.rz(q, theta[2 * (block * n + q) + 1]);
            }
        };
        rot_layer(0);
        for (int b = 1; b <= layers; ++b) {
            for (int q = 0; q + 1 < n; ++q)
                c.cx(q, q + 1);
            rot_layer(b);
        }
        return c;
    };
    run.evolve = [n, layers](sim::StateVector &state,
                             const std::vector<double> &theta) {
        state.reset(0);
        auto rot_layer = [&](int block) {
            for (int q = 0; q < n; ++q) {
                const double ry = theta[2 * (block * n + q)];
                const double rz = theta[2 * (block * n + q) + 1];
                const double cy = std::cos(ry / 2), sy = std::sin(ry / 2);
                state.apply1q(q, cy, -sy, sy, cy);
                const sim::Cplx em{std::cos(rz / 2), -std::sin(rz / 2)};
                const sim::Cplx ep{std::cos(rz / 2), std::sin(rz / 2)};
                state.apply1q(q, em, 0, 0, ep);
            }
        };
        rot_layer(0);
        for (int b = 1; b <= layers; ++b) {
            for (int q = 0; q + 1 < n; ++q)
                state.applyControlled1q(Basis{1} << q, q + 1, 0, 1, 1, 0);
            rot_layer(b);
        }
    };
    run.lift = [](Basis x) { return x; };
    const double plan_seconds = compile_timer.seconds();

    core::EngineOptions engine = opts_.engine;
    if (engine.theta0.empty()) {
        Rng rng(opts_.seed);
        const int count = 2 * n * (layers + 1);
        for (int i = 0; i < count; ++i)
            engine.theta0.push_back(rng.uniform(-0.3, 0.3));
    }

    core::SolverOutcome out = core::runQaoa({run}, engine);
    out.compileSeconds += plan_seconds;
    return out;
}

} // namespace chocoq::solvers
