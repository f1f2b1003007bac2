/**
 * @file
 * Transpiler correctness: every lowering rule must reproduce the original
 * gate's unitary up to a global phase, including the ancilla-based
 * V-chain lowering of multi-controlled phase gates.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/transpile.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "sim/unitary.hpp"

using namespace chocoq;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateType;
using linalg::Matrix;

namespace
{

/** Unitary restricted to ancillas-in-|0> columns/rows. */
Matrix
dataBlock(const Circuit &c, int data_qubits)
{
    const Matrix full = sim::circuitUnitary(c);
    const std::size_t dim = std::size_t{1} << data_qubits;
    Matrix out(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t col = 0; col < dim; ++col)
            out.at(r, col) = full.at(r, col);
    return out;
}

/** Check lowering of a single-gate circuit against its own unitary. */
void
expectLoweringExact(const Gate &g, int n, double tol = 1e-9)
{
    Circuit original(n);
    original.add(g);
    const Matrix expect = sim::circuitUnitary(original);
    const Circuit lowered = circuit::transpile(original);
    const int type = static_cast<int>(g.type);
    ASSERT_TRUE(circuit::isLowered(lowered)) << "gate type " << type;
    const Matrix got = dataBlock(lowered, n);
    EXPECT_LT(linalg::phaseDistance(expect, got), tol)
        << "lowering broke gate type " << type;
}

} // namespace

TEST(Transpile, SingleQubitGates)
{
    for (GateType t : {GateType::H, GateType::X})
        expectLoweringExact({t, {0}, 0.0}, 1);
}

TEST(Transpile, RotationGates)
{
    Rng rng(2);
    for (GateType t : {GateType::RX, GateType::RY, GateType::RZ})
        for (int i = 0; i < 4; ++i)
            expectLoweringExact({t, {0}, rng.uniform(-3.0, 3.0)}, 1);
}

TEST(Transpile, TwoQubitGates)
{
    Rng rng(3);
    expectLoweringExact({GateType::CX, {0, 1}, 0.0}, 2);
    for (int i = 0; i < 3; ++i)
        expectLoweringExact({GateType::XY, {0, 1}, rng.uniform(-2, 2)}, 2);
}

TEST(Transpile, ReversedOperandOrder)
{
    // MCP on two and three operands runs emitCp and emitCcx on
    // permuted operands.
    expectLoweringExact({GateType::CX, {1, 0}, 0.0}, 2);
    expectLoweringExact({GateType::MCP, {1, 0}, 0.9}, 2);
    expectLoweringExact({GateType::MCP, {2, 0, 1}, -1.3}, 3);
}

/** MCP must be exact for every control count (the P(beta) of Lemma 2). */
class TranspileMcp : public ::testing::TestWithParam<int>
{
};

TEST_P(TranspileMcp, ExactForKControls)
{
    const int k = GetParam();
    Rng rng(100 + k);
    std::vector<int> qs(k);
    for (int i = 0; i < k; ++i)
        qs[i] = i;
    expectLoweringExact({GateType::MCP, qs, rng.uniform(-3, 3)}, k);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TranspileMcp, ::testing::Range(1, 7));

TEST(Transpile, McpAncillasReturnToZero)
{
    // After the V-chain uncompute, all ancillas must be |0> on every
    // input basis state.
    Circuit c(4);
    c.mcp({0, 1, 2, 3}, 1.1);
    const Circuit lowered = circuit::transpile(c);
    ASSERT_GT(lowered.numQubits(), 4);
    const Matrix u = sim::circuitUnitary(lowered);
    // Columns with ancilla inputs |0>: rows with non-zero entries must
    // also have ancillas |0>.
    const std::size_t data_dim = 16;
    for (std::size_t col = 0; col < data_dim; ++col)
        for (std::size_t row = 0; row < u.rows(); ++row)
            if (std::abs(u.at(row, col)) > 1e-12)
                EXPECT_LT(row, data_dim);
}

TEST(Transpile, AncillasAreSharedAcrossGates)
{
    // Two MCP gates must reuse the same ancilla pool, not allocate twice.
    Circuit one(5);
    one.mcp({0, 1, 2, 3, 4}, 0.4);
    Circuit two(5);
    two.mcp({0, 1, 2, 3, 4}, 0.4);
    two.mcp({0, 1, 2, 3, 4}, -0.4);
    const int anc_one = circuit::transpile(one).numQubits() - 5;
    const int anc_two = circuit::transpile(two).numQubits() - 5;
    EXPECT_EQ(anc_one, anc_two);
    EXPECT_EQ(anc_one, 3); // k-2 ancillas for k=5
}

TEST(Transpile, CompositeCircuitEndToEnd)
{
    Rng rng(9);
    Circuit c(3);
    c.h(0);
    c.ry(1, 0.3);
    c.xy(0, 2, 0.8);
    c.mcp({0, 1, 2}, -1.2);
    const Matrix expect = sim::circuitUnitary(c);
    const Circuit lowered = circuit::transpile(c);
    ASSERT_TRUE(circuit::isLowered(lowered));
    EXPECT_LT(linalg::phaseDistance(expect, dataBlock(lowered, 3)), 1e-9);
}

TEST(Transpile, LinearDepthForMcpChain)
{
    // Depth of a lowered k-control MCP grows linearly in k (Sec. IV-B).
    std::vector<int> depth;
    for (int k = 3; k <= 9; ++k) {
        Circuit c(k);
        std::vector<int> qs(k);
        for (int i = 0; i < k; ++i)
            qs[i] = i;
        c.mcp(qs, 0.5);
        depth.push_back(circuit::transpile(c).depth());
    }
    for (std::size_t i = 1; i < depth.size(); ++i) {
        EXPECT_GT(depth[i], depth[i - 1]);
        EXPECT_LT(depth[i] - depth[i - 1], 60);
    }
}
