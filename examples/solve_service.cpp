/**
 * @file
 * Library-level use of the concurrent solve service: submit a batch of
 * jobs that repeat a few problem structures, let the compilation cache
 * and worker pool do their thing, and inspect per-job results plus
 * cache statistics. The JSONL-speaking equivalent is the chocoq_serve
 * binary (tools/chocoq_serve.cpp).
 */

#include <cstdio>

#include "service/service.hpp"

int
main()
{
    using namespace chocoq;

    service::ServiceOptions options;
    options.workers = 2;
    service::SolveService svc(options);

    // Nine jobs over three distinct structures: each structure compiles
    // once, every repeat reuses the shared artifacts.
    std::vector<service::SolveJob> jobs;
    for (const char *scale : {"F1", "K1", "G1"}) {
        for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
            service::SolveJob job;
            job.id = std::string(scale) + "@" + std::to_string(seed);
            job.scale = scale;
            job.seed = seed;
            job.maxIterations = 20;
            job.keepStarts = 2; // multi-start screening
            jobs.push_back(std::move(job));
        }
    }

    const auto results = svc.solveAll(jobs);
    for (const auto &r : results)
        std::printf("%-8s %-16s best=%-10.4f top p=%.3f feasible=%s "
                    "cache=%s %.2f ms on worker %d\n",
                    r.id.c_str(), r.problem.c_str(), r.bestCost,
                    r.topProbability, r.topFeasible ? "yes" : "no",
                    r.cacheHit ? "hit" : "miss", r.solveMs, r.worker);

    const auto cache = svc.cacheStats();
    std::printf("cache: %llu hits, %llu misses, %zu entries\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.entries);
    return 0;
}
