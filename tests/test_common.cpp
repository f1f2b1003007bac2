/**
 * @file
 * Unit tests for the common utilities: bit operations, the seeded RNG,
 * table formatting, and allocation accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/membytes.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

using namespace chocoq;

TEST(BitOps, GetSetFlip)
{
    Basis x = 0b1010;
    EXPECT_EQ(getBit(x, 0), 0);
    EXPECT_EQ(getBit(x, 1), 1);
    EXPECT_EQ(setBit(x, 0, 1), 0b1011u);
    EXPECT_EQ(setBit(x, 1, 0), 0b1000u);
    EXPECT_EQ(setBit(x, 1, 1), x);
    EXPECT_EQ(flipBit(x, 3), 0b0010u);
    EXPECT_EQ(popcount(x), 2);
}

TEST(BitOps, BitVectorRoundTrip)
{
    const std::vector<int> bits{1, 0, 1, 1, 0};
    const Basis idx = fromBits(bits);
    EXPECT_EQ(idx, 0b01101u);
    EXPECT_EQ(toBits(idx, 5), bits);
}

TEST(BitOps, BitStringMatchesPaperConvention)
{
    // |1010> means x1=1, x2=0, x3=1, x4=0 (paper Fig. 2a solution).
    const Basis idx = fromBits({1, 0, 1, 0});
    EXPECT_EQ(bitString(idx, 4), "1010");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, IntInCoversInclusiveRange)
{
    Rng rng(9);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i) {
        const int v = rng.intIn(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasSaneMoments)
{
    Rng rng(13);
    double sum = 0, sum2 = 0;
    const int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) {
        const double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / kSamples, 0.0, 0.05);
    EXPECT_NEAR(sum2 / kSamples, 1.0, 0.05);
}

TEST(Rng, DiscreteFollowsWeights)
{
    Rng rng(17);
    const std::vector<double> w{1.0, 3.0};
    int ones = 0;
    const int kSamples = 10000;
    for (int i = 0; i < kSamples; ++i)
        ones += rng.discrete(w) == 1;
    EXPECT_NEAR(static_cast<double>(ones) / kSamples, 0.75, 0.03);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRule();
    t.addRow({"b", "22222"});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22222"), std::string::npos);
    // Every data line has the same width.
    std::size_t width = 0;
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t eol = s.find('\n', pos);
        if (eol == std::string::npos)
            break;
        if (width == 0)
            width = eol - pos;
        else
            EXPECT_EQ(eol - pos, width);
        pos = eol + 1;
    }
}

TEST(Table, RowArityMismatchThrows)
{
    Table t({"a", "b"});
    std::vector<std::string> bad{"only-one"};
    EXPECT_THROW(t.addRow(bad), InternalError);
}

TEST(TableFormat, Numbers)
{
    EXPECT_EQ(fmtNum(1.5), "1.5");
    EXPECT_EQ(fmtNum(2.0), "2");
    EXPECT_EQ(fmtNum(0.129, 2), "0.13");
    EXPECT_EQ(fmtPct(0.671, 1), "67.1");
    EXPECT_EQ(fmtPctOrFail(0.0), "x");
    EXPECT_EQ(fmtPctOrFail(0.33), "33");
}

TEST(MemBytes, TracksPeak)
{
    MemBytes::resetPeak();
    const std::size_t before = MemBytes::peak();
    {
        TrackedAlloc a(1 << 20);
        EXPECT_GE(MemBytes::peak(), before + (1 << 20));
        {
            TrackedAlloc b(1 << 20);
            EXPECT_GE(MemBytes::peak(), before + (2 << 20));
        }
    }
    // Peak persists after frees; current drops back.
    EXPECT_GE(MemBytes::peak(), before + (2 << 20));
}

TEST(Timer, MeasuresElapsed)
{
    Timer t;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    EXPECT_GT(t.seconds(), 0.0);
    EXPECT_EQ(t.seconds() * 1e3 > 0, t.ms() > 0);
}

TEST(Error, FatalCarriesMessage)
{
    try {
        CHOCOQ_FATAL("bad input " << 42);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), "fatal: bad input 42");
    }
}

TEST(Error, AssertPassesWhenTrue)
{
    EXPECT_NO_THROW(CHOCOQ_ASSERT(1 + 1 == 2, "math works"));
}
