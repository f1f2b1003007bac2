/**
 * @file
 * Subspace enumeration for masked state-vector kernels.
 *
 * A masked kernel (commute pair rotation, phase mask, controlled gate)
 * transforms only the basis states whose bits agree
 * with a fixed pattern on some support; the remaining "free" qubits are
 * spectators. Instead of scanning all 2^n indices and filtering with a
 * branch, these helpers enumerate exactly the 2^(n-k) matching indices:
 *
 *   idx_0 = fixed_bits
 *   idx_{t+1} = (((idx_t | ~free_mask) + 1) & free_mask) | fixed_bits
 *
 * The +1 carry propagates through the (saturated) non-free bits, so the
 * free bits count up like a packed integer — one add and two bit-ops per
 * index, no branch, and the visit order is ascending. Random access for
 * parallel chunking deposits the bits of an ordinal t into the free
 * positions (subspaceExpand), after which each thread advances with the
 * same O(1) carry step. Chunk boundaries depend only on (count, threads),
 * keeping the partitioning deterministic.
 */

#ifndef CHOCOQ_SIM_SUBSPACE_HPP
#define CHOCOQ_SIM_SUBSPACE_HPP

#include <cstddef>

#include "common/bitops.hpp"
#include "sim/parallel.hpp"

namespace chocoq::sim
{

/** Number of indices matching a pattern with free bits @p free_mask. */
inline std::size_t
subspaceCount(Basis free_mask)
{
    return std::size_t{1} << popcount(free_mask);
}

/**
 * The @p t-th matching index (ascending order): deposit the bits of t
 * into the set positions of @p free_mask, OR in @p fixed_bits.
 */
inline Basis
subspaceExpand(Basis free_mask, Basis fixed_bits, std::size_t t)
{
    Basis idx = fixed_bits;
    Basis m = free_mask;
    while (t != 0 && m != 0) {
        const Basis low = m & (~m + 1);
        if (t & 1u)
            idx |= low;
        m &= m - 1;
        t >>= 1;
    }
    return idx;
}

/** Successor of @p idx within the subspace (carry-propagate counter). */
inline Basis
subspaceNext(Basis idx, Basis free_mask, Basis fixed_bits)
{
    return (((idx | ~free_mask) + 1) & free_mask) | fixed_bits;
}

/**
 * Decompose the subspace {idx : (idx & ~free_mask) == fixed_bits} into
 * maximal contiguous runs and call run_body(base, len) for each, in
 * ascending base order per chunk. The free bits below the lowest fixed
 * bit address contiguous memory, so the subspace is 2^(free bits above)
 * carry-advanced run bases times a sequential span of 2^(free bits
 * below) indices — kernels get a dense inner loop that vectorizes, and
 * the carry arithmetic amortizes to nothing.
 *
 * @p fixed_bits must not intersect @p free_mask. Parallel when the
 * subspace is large enough and more than one thread is configured:
 * whole runs are distributed when there are enough of them, otherwise
 * each run is split into per-thread sub-runs (a sub-span of a run is
 * itself a valid run). Chunk boundaries depend only on (count, threads).
 * run_body must write only locations derived from its own span — every
 * kernel here touches {idx} or {idx, partner} pairs whose partners live
 * in a disjoint fixed-pattern subspace, so chunks never overlap — and
 * must not throw (the gate kernels are pure arithmetic; a throwing body
 * inside the parallel branch would terminate the process).
 */
template <class RunBody>
void
forEachSubspaceRun(Basis free_mask, Basis fixed_bits, RunBody &&run_body)
{
    const std::size_t run_len = std::size_t{1}
                                << std::countr_one(free_mask);
    const Basis outer_mask = free_mask & ~(run_len - 1);
    const std::size_t outer_count = subspaceCount(outer_mask);

#ifdef _OPENMP
    const int nt = planThreads(outer_count * run_len);
    if (nt > 1) {
        if (outer_count >= static_cast<std::size_t>(nt)) {
#pragma omp parallel num_threads(nt)
            {
                // Partition on the granted team size: the runtime may
                // deliver fewer threads than requested, and chunks must
                // all be owned by live threads.
                const int team = omp_get_num_threads();
                const int tid = omp_get_thread_num();
                const std::size_t begin =
                    outer_count * static_cast<std::size_t>(tid) / team;
                const std::size_t end =
                    outer_count * (static_cast<std::size_t>(tid) + 1)
                    / team;
                Basis base = subspaceExpand(outer_mask, fixed_bits, begin);
                for (std::size_t t = begin; t < end; ++t) {
                    run_body(base, run_len);
                    base = subspaceNext(base, outer_mask, fixed_bits);
                }
            }
        } else {
            // Few long runs: split each run across the threads.
            Basis base = fixed_bits;
            for (std::size_t t = 0; t < outer_count; ++t) {
#pragma omp parallel num_threads(nt)
                {
                    const int team = omp_get_num_threads();
                    const int tid = omp_get_thread_num();
                    const std::size_t begin =
                        run_len * static_cast<std::size_t>(tid) / team;
                    const std::size_t end =
                        run_len * (static_cast<std::size_t>(tid) + 1)
                        / team;
                    if (end > begin)
                        run_body(base + static_cast<Basis>(begin),
                                 end - begin);
                }
                base = subspaceNext(base, outer_mask, fixed_bits);
            }
        }
        return;
    }
#endif
    Basis base = fixed_bits;
    for (std::size_t t = 0; t < outer_count; ++t) {
        run_body(base, run_len);
        base = subspaceNext(base, outer_mask, fixed_bits);
    }
}

/**
 * Run body(idx) for every index with (idx & ~free_mask) == fixed_bits,
 * in ascending order per chunk (run decomposition and parallel policy of
 * forEachSubspaceRun).
 */
template <class Body>
void
forEachInSubspace(Basis free_mask, Basis fixed_bits, Body &&body)
{
    forEachSubspaceRun(free_mask, fixed_bits,
                       [&](Basis base, std::size_t len) {
                           for (std::size_t j = 0; j < len; ++j)
                               body(base + static_cast<Basis>(j));
                       });
}

} // namespace chocoq::sim

#endif // CHOCOQ_SIM_SUBSPACE_HPP
