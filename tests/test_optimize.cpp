/**
 * @file
 * Tests for the COBYLA optimizer on standard objectives.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "optimize/optimizer.hpp"

using namespace chocoq;
using optimize::ObjectiveFn;
using optimize::OptOptions;

namespace
{

double
quadratic(const std::vector<double> &x)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += (x[i] - static_cast<double>(i)) * (x[i]
                                                  - static_cast<double>(i));
    return acc;
}

double
rosenbrock(const std::vector<double> &x)
{
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < x.size(); ++i)
        acc += 100.0 * std::pow(x[i + 1] - x[i] * x[i], 2)
               + std::pow(1.0 - x[i], 2);
    return acc;
}

/** Quadratic with cross terms, built from +, - and * only so its bits
 * do not depend on the libm version. */
double
crossQuadratic(const std::vector<double> &x)
{
    const double a = x[0] - 1.0;
    const double b = x[1] + 0.5;
    const double c = x[2] - 0.25;
    return a * a + 2.0 * b * b + 3.0 * c * c + a * b - 0.5 * b * c
           + 0.25 * a * c;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

} // namespace

TEST(Cobyla, ConvergesNearMinimum)
{
    OptOptions opts;
    opts.maxIterations = 400;
    opts.initialStep = 0.8;
    const auto res = optimize::cobyla(quadratic, {2.0, 2.0, 2.0}, opts);
    EXPECT_LT(res.bestValue, 0.5);
    EXPECT_GT(res.evaluations, 0);
    EXPECT_GT(res.iterations, 0);
}

TEST(Cobyla, TraceIsMonotoneNonIncreasing)
{
    OptOptions opts;
    opts.maxIterations = 100;
    const auto res = optimize::cobyla(quadratic, {3.0, -1.0}, opts);
    for (std::size_t i = 1; i < res.trace.size(); ++i)
        EXPECT_LE(res.trace[i].best, res.trace[i - 1].best + 1e-12);
}

TEST(Cobyla, HandlesOneDimension)
{
    OptOptions opts;
    opts.maxIterations = 200;
    const auto res = optimize::cobyla(
        [](const std::vector<double> &x) {
            return (x[0] - 1.5) * (x[0] - 1.5);
        },
        {0.0}, opts);
    EXPECT_NEAR(res.best[0], 1.5, 0.05);
}

TEST(Cobyla, ImprovesRosenbrockSubstantially)
{
    OptOptions opts;
    opts.maxIterations = 500;
    opts.initialStep = 0.5;
    const std::vector<double> x0{-1.2, 1.0};
    const auto res = optimize::cobyla(rosenbrock, x0, opts);
    EXPECT_LT(res.bestValue, rosenbrock(x0) * 0.25);
}

TEST(Cobyla, RespectsIterationBudget)
{
    OptOptions opts;
    opts.maxIterations = 7;
    opts.tolerance = 0.0;
    const auto res = optimize::cobyla(quadratic, {5.0, 5.0}, opts);
    EXPECT_LE(res.iterations, 7);
}

TEST(Cobyla, FlatObjectiveTerminatesGracefully)
{
    OptOptions opts;
    opts.maxIterations = 50;
    const auto res = optimize::cobyla(
        [](const std::vector<double> &) { return 1.0; }, {0.0, 0.0}, opts);
    EXPECT_DOUBLE_EQ(res.bestValue, 1.0);
}

/** Pins COBYLA's exact trajectory: evaluation/iteration counts and the
 * bits of the result on a trust-region run and on the re-anchor branch
 * of a flat objective. Any change to the points COBYLA evaluates, or to
 * their order, moves these numbers. */
TEST(Cobyla, PinnedTrajectoryBits)
{
    OptOptions opts;
    opts.maxIterations = 200;
    opts.initialStep = 0.5;
    const auto quad =
        optimize::cobyla(crossQuadratic, {0.0, 0.0, 0.0}, opts);
    EXPECT_EQ(quad.evaluations, 63);
    EXPECT_EQ(quad.iterations, 59);
    EXPECT_EQ(quad.trace.size(), 59u);
    ASSERT_EQ(quad.best.size(), 3u);
    EXPECT_EQ(bits(quad.best[0]), bits(0x1.00229ce9e8f64p+0));
    EXPECT_EQ(bits(quad.best[1]), bits(-0x1.001319d4176b6p-1));
    EXPECT_EQ(bits(quad.best[2]), bits(0x1.0009b2997365fp-2));
    EXPECT_EQ(bits(quad.bestValue), bits(0x1.13064bae5a42fp-22));

    OptOptions flat_opts;
    flat_opts.maxIterations = 50;
    const auto flat = optimize::cobyla(
        [](const std::vector<double> &) { return 1.0; }, {0.0, 0.0},
        flat_opts);
    EXPECT_EQ(flat.evaluations, 27);
    EXPECT_EQ(flat.iterations, 13);
    EXPECT_EQ(flat.trace.size(), 12u);
    ASSERT_EQ(flat.best.size(), 2u);
    EXPECT_EQ(bits(flat.best[0]), bits(0x0p+0));
    EXPECT_EQ(bits(flat.best[1]), bits(0x0p+0));
    EXPECT_EQ(bits(flat.bestValue), bits(0x1p+0));
}
