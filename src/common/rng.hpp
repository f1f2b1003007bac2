/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components (problem generators, shot sampling, noise
 * trajectories, optimizers) draw from a Rng instance that is seeded
 * explicitly, so every experiment in the repository is reproducible.
 * The core generator is xoshiro256++ (public-domain algorithm by Blackman
 * and Vigna), implemented here from the published recurrence.
 */

#ifndef CHOCOQ_COMMON_RNG_HPP
#define CHOCOQ_COMMON_RNG_HPP

#include <cstdint>
#include <vector>

namespace chocoq
{

/** Seeded xoshiro256++ generator with convenience distributions. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n), n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int intIn(int lo, int hi);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * @param weights Unnormalized weights; at least one must be positive.
     * @return The sampled index.
     */
    std::size_t discrete(const std::vector<double> &weights);

  private:
    std::uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Derive an independent sub-stream seed from a master seed (splitmix64
 * finalizer over seed + stream * golden-ratio). Components that need
 * several decorrelated deterministic streams from one job/user seed
 * (optimizer restarts, HEA initial angles, final sampling) share this
 * one audited recipe.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace chocoq

#endif // CHOCOQ_COMMON_RNG_HPP
