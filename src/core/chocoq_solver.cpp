#include "core/chocoq_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "circuit/transpile.hpp"
#include "core/circuits.hpp"
#include "model/exact.hpp"

namespace chocoq::core
{

std::size_t
ChocoQArtifacts::memoryBytes() const
{
    std::size_t bytes = sizeof(ChocoQArtifacts);
    bytes += (plan.eliminated.capacity() + plan.kept.capacity())
             * sizeof(int);
    for (const auto &sub : subs) {
        bytes += sizeof(CompiledSub);
        if (sub.costTable)
            bytes += sub.costTable->capacity() * sizeof(double);
        if (sub.terms)
            for (const auto &t : *sub.terms)
                bytes += sizeof(CommuteTerm)
                         + (t.u.capacity() + t.support.capacity())
                               * sizeof(int);
        if (sub.objective)
            for (const auto &[vars, coeff] : sub.objective->terms())
                bytes += sizeof(double) + vars.capacity() * sizeof(int)
                         + 48; // map-node overhead estimate
        if (sub.fusedPlan)
            bytes += sub.fusedPlan->memoryBytes();
        if (sub.subspace)
            bytes += sub.subspace->memoryBytes();
    }
    return bytes;
}

ChocoQSolver::ChocoQSolver(ChocoQOptions opts) : opts_(std::move(opts))
{
    CHOCOQ_ASSERT(opts_.layers >= 1, "Choco-Q needs at least one layer");
    CHOCOQ_ASSERT(opts_.eliminate >= 0, "negative elimination count");
}

std::shared_ptr<const ChocoQArtifacts>
ChocoQSolver::compile(const model::Problem &p) const
{
    Timer compile_timer;
    auto art = std::make_shared<ChocoQArtifacts>();
    const int e = std::min(opts_.eliminate, p.numVars() - 1);
    art->plan = chooseElimination(p, e);
    const auto subs = buildSubInstances(p, art->plan);
    const int k = static_cast<int>(art->plan.kept.size());

    for (const auto &sub : subs) {
        const auto init = model::findFeasible(sub.reduced);
        if (!init)
            continue; // this assignment of eliminated vars is infeasible

        const MoveBasis rb = computeMoveBasis(sub.reduced);
        const auto moves = expandMoveSet(
            rb, sub.reduced.constraints(),
            std::max<std::size_t>(opts_.moveSetFactor, 1)
                * std::max<std::size_t>(rb.moves.size(), 1));

        CompiledSub cs;
        cs.numQubits = k;
        cs.init = *init;
        cs.assignment = sub.assignment;
        cs.terms = std::make_shared<const std::vector<CommuteTerm>>(
            makeCommuteTerms(moves));
        cs.objective = std::make_shared<const model::Polynomial>(
            sub.reduced.minimizedObjective());
        cs.costTable = std::make_shared<const std::vector<double>>(
            cs.objective->tabulate(k));
        // Layer fusion is compile-relevant (the plan ships with the
        // artifacts and the cache key carries the flag); with fusion
        // off the artifacts stay plan-free and the run uses the
        // per-term/uncompressed kernels.
        if (opts_.engine.fusion) {
            cs.fusedPlan = std::make_shared<const FusedLayerPlan>(
                buildFusedLayerPlan(*cs.costTable, *cs.terms));
            cs.subspace =
                selectFeasibleSubspace(cs.init, *cs.terms, *cs.costTable);
        }

        // Fig. 14 ablation: extra basic gates a generic two-level
        // synthesis of each local unitary would cost over Lemma 2.
        if (opts_.genericSynthesisPadding) {
            for (const auto &term : *cs.terms) {
                const std::size_t generic = genericTermSynthesisGates(term, 0.7);
                circuit::Circuit one(k);
                appendCommuteTermCircuit(one, term, 0.7);
                const std::size_t lemma2 =
                    circuit::transpile(one).gateCount();
                if (generic > lemma2)
                    cs.padPairs += (generic - lemma2) / 2;
            }
        }
        art->subs.push_back(std::move(cs));
    }
    if (art->subs.empty())
        CHOCOQ_FATAL("problem " << p.name()
                     << " has no feasible assignment");
    art->seconds = compile_timer.seconds();
    return art;
}

SolverOutcome
ChocoQSolver::solveCompiled(const model::Problem &,
                            const ChocoQArtifacts &art) const
{
    // SubRun closures capture only shared_ptr-to-const artifact pieces
    // (plus plain values), so many jobs may run off one ChocoQArtifacts
    // concurrently.
    std::vector<SubRun> runs;
    runs.reserve(art.subs.size());
    const EliminationPlan &plan = art.plan;
    for (const auto &cs : art.subs) {
        const int k = cs.numQubits;
        const Basis x0 = cs.init;
        const Basis assignment = cs.assignment;
        const auto f = cs.objective;
        const auto terms = cs.terms;
        const auto table = cs.costTable;
        const std::size_t pad_pairs = cs.padPairs;

        SubRun run;
        run.numQubits = k;
        run.costTable = table;
        run.build = [k, x0, f, terms,
                     pad_pairs](const std::vector<double> &theta) {
            circuit::Circuit c = chocoAnsatz(k, x0, *f, *terms, theta);
            if (pad_pairs > 0)
                appendIdentityPadding(c, pad_pairs * (theta.size() / 2));
            return c;
        };
        const auto fused = opts_.engine.fusion ? cs.fusedPlan : nullptr;
        const auto subspace = opts_.engine.fusion ? cs.subspace : nullptr;
        if (subspace) {
            // Feasible-subspace backend: the run works on the compact
            // state of the reachable set (bit-identical to the dense
            // closures below at one kernel thread; see
            // core/feasible_subspace.hpp). Aliasing views into the plan
            // give the engine the compact-to-basis map and the
            // compressed objective over the set.
            auto scratch = std::make_shared<std::vector<sim::Cplx>>();
            run.evolve = [subspace, scratch](sim::StateVector &state,
                                             const std::vector<double> &theta) {
                state.reset(subspace->initIndex);
                const std::size_t layers = theta.size() / 2;
                for (std::size_t l = 0; l < layers; ++l)
                    applySubspaceLayer(state, *subspace, theta[2 * l],
                                       theta[2 * l + 1], *scratch);
            };
            run.compactStates = std::shared_ptr<const std::vector<Basis>>(
                subspace, &subspace->states);
            run.costDistinct = std::shared_ptr<const std::vector<double>>(
                subspace, &subspace->distinctValues);
            run.costIndex = std::shared_ptr<const std::vector<std::uint16_t>>(
                subspace, &subspace->valueIndex);
        } else if (fused) {
            // Fused layers: value-compressed objective phase folded into
            // the first commute-group sweep, remaining groups as grouped
            // rotations — bit-identical to the unfused closure below
            // (tested property). The phase scratch buffer is shared
            // across evaluations of this run (one engine run is
            // single-threaded over its SubRuns), so the hot loop stays
            // allocation-free in steady state.
            auto scratch = std::make_shared<std::vector<sim::Cplx>>();
            run.evolve = [x0, table, fused,
                          scratch](sim::StateVector &state,
                                   const std::vector<double> &theta) {
                state.reset(x0);
                const std::size_t layers = theta.size() / 2;
                for (std::size_t l = 0; l < layers; ++l)
                    applyFusedLayer(state, *fused, *table, theta[2 * l],
                                    theta[2 * l + 1], *scratch);
            };
            if (fused->compressedPhase) {
                // Aliasing views into the plan: the compressed cost
                // table doubles as the expectation observable.
                run.costDistinct = std::shared_ptr<const std::vector<double>>(
                    fused, &fused->distinctValues);
                run.costIndex =
                    std::shared_ptr<const std::vector<std::uint16_t>>(
                        fused, &fused->valueIndex);
            }
        } else {
            run.evolve = [x0, table,
                          terms](sim::StateVector &state,
                                 const std::vector<double> &theta) {
                state.reset(x0);
                const std::size_t layers = theta.size() / 2;
                for (std::size_t l = 0; l < layers; ++l) {
                    state.applyPhaseTable(*table, theta[2 * l]);
                    applyCommuteLayer(state, *terms, theta[2 * l + 1]);
                }
            };
        }
        run.lift = [plan, assignment](Basis x) {
            return liftToFull(x, plan, assignment);
        };
        runs.push_back(std::move(run));
    }

    EngineOptions engine = opts_.engine;
    if (engine.theta0.empty()) {
        // Deterministic multi-start grid: QAOA angle landscapes are
        // periodic and multi-modal, and wide beta values matter for the
        // commute driver (a pair rotation only completes a transfer near
        // beta = pi/2 per move).
        auto tile = [&](double g, double b) {
            std::vector<double> theta;
            for (int l = 0; l < opts_.layers; ++l) {
                theta.push_back(g);
                theta.push_back(b);
            }
            return theta;
        };
        engine.theta0 = tile(0.4, 0.7);
        engine.extraStarts = {tile(0.8, 2.2), tile(2.4, 1.2),
                              tile(1.2, 3.0)};
    }

    SolverOutcome out = runQaoa(runs, engine);
    out.compileSeconds += art.seconds;
    return out;
}

SolverOutcome
ChocoQSolver::solve(const model::Problem &p) const
{
    return solveCompiled(p, *compile(p));
}

} // namespace chocoq::core
