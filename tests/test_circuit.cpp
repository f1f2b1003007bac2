/**
 * @file
 * Unit tests for the circuit IR: builder validation, depth analysis,
 * gate counts, and ancilla management.
 */

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "common/error.hpp"

using namespace chocoq;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;

TEST(Circuit, EmptyCircuit)
{
    Circuit c(3);
    EXPECT_EQ(c.numQubits(), 3);
    EXPECT_EQ(c.depth(), 0);
    EXPECT_EQ(c.gateCount(), 0u);
}

TEST(Circuit, DepthCountsParallelGatesOnce)
{
    Circuit c(4);
    c.h(0);
    c.h(1);
    c.h(2);
    c.h(3);
    EXPECT_EQ(c.depth(), 1);
    c.cx(0, 1);
    c.cx(2, 3);
    EXPECT_EQ(c.depth(), 2);
    c.cx(1, 2);
    EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, RejectsOutOfRangeOperands)
{
    Circuit c(2);
    EXPECT_THROW(c.h(2), InternalError);
    EXPECT_THROW(c.cx(0, 5), InternalError);
    EXPECT_THROW(c.h(-1), InternalError);
}

TEST(Circuit, RejectsDuplicateOperands)
{
    Circuit c(3);
    EXPECT_THROW(c.cx(1, 1), InternalError);
    std::vector<int> dup{0, 1, 0};
    EXPECT_THROW(c.mcp(dup, 0.3), InternalError);
}

TEST(Circuit, AncillaGrowsRegister)
{
    Circuit c(2);
    const int a = c.addAncilla();
    EXPECT_EQ(a, 2);
    EXPECT_EQ(c.numQubits(), 3);
    EXPECT_EQ(c.numData(), 2);
    c.h(a); // now valid
    EXPECT_EQ(c.gateCount(), 1u);
}

TEST(Circuit, MultiQubitCount)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.mcp({0, 1, 2}, 0.4);
    EXPECT_EQ(c.multiQubitGateCount(), 2u);
    EXPECT_EQ(c.gateCount(), 4u);
}

TEST(Circuit, AppendConcatenates)
{
    Circuit a(2), b(2);
    a.h(0);
    b.cx(0, 1);
    a.append(b);
    EXPECT_EQ(a.gateCount(), 2u);
    EXPECT_EQ(a.gates()[1].type, GateType::CX);
}

TEST(Circuit, ParamCarriedOnRotations)
{
    Circuit c(1);
    c.rz(0, 0.75);
    EXPECT_DOUBLE_EQ(c.gates()[0].param, 0.75);
}

TEST(Circuit, McpDepthCountsAllOperands)
{
    Circuit c(4);
    c.mcp({0, 1, 2, 3}, 0.5);
    c.h(0);
    EXPECT_EQ(c.depth(), 2); // H must wait for the MCP on q0.
}
