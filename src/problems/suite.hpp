/**
 * @file
 * Benchmark scale registry (the paper's F1..F4, G1..G4, K1..K4).
 *
 * The paper collects 400 cases across three domains and four scales per
 * domain (Section V-A); this registry regenerates seeded synthetic cases
 * with the same constraint structure and the paper's variable counts
 * (F1 = 6 vars / 3 constraints ... F4 = 28 vars, G1 = 12 qubits, ...).
 */

#ifndef CHOCOQ_PROBLEMS_SUITE_HPP
#define CHOCOQ_PROBLEMS_SUITE_HPP

#include <optional>
#include <string>
#include <vector>

#include "model/problem.hpp"

namespace chocoq::problems
{

/** Identifiers of the twelve benchmark scales of Table II. */
enum class Scale
{
    F1, F2, F3, F4,
    G1, G2, G3, G4,
    K1, K2, K3, K4
};

/** All scales in Table II order. */
std::vector<Scale> allScales();

/** Scale name as printed in the paper ("F1", "G3", ...). */
std::string scaleName(Scale s);

/**
 * Parse a scale name ("F1" .. "K4", case-insensitive). Streaming entry
 * point for the solve service: a JSONL job request names its case as
 * (scale, index) and the registry regenerates it on demand, so a suite
 * of thousands of jobs needs no materialized problem list.
 */
std::optional<Scale> scaleByName(const std::string &name);

/** Configuration string ("2F-1D", "3V-1E-3C", ...). */
std::string scaleConfig(Scale s);

/** Number of binary variables (qubits before elimination) at this scale. */
int scaleNumVars(Scale s);

/** Number of constraint rows at this scale. */
int scaleNumConstraints(Scale s);

/** Generate the @p index-th seeded case of a scale. */
model::Problem makeCase(Scale s, unsigned index);

} // namespace chocoq::problems

#endif // CHOCOQ_PROBLEMS_SUITE_HPP
