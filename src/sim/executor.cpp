#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace chocoq::sim
{

namespace
{

using circuit::Gate;
using circuit::GateType;

constexpr double kInvSqrt2 = 0.70710678118654752440;

Basis
maskOf(const std::vector<int> &qubits)
{
    Basis mask = 0;
    for (const int q : qubits)
        mask |= Basis{1} << q;
    return mask;
}

/** Row-major entries of a Pauli error, in rng.intIn(0, 2) order. */
struct Pauli
{
    Cplx m00, m01, m10, m11;
};

const Pauli kPaulis[3] = {
    {0, 1, 1, 0},                     // X
    {0, Cplx{0, -1}, Cplx{0, 1}, 0},  // Y
    {1, 0, 0, -1},                    // Z
};

/**
 * Past dim / kDenseSwitchDivisor listed indices a trajectory finishes on
 * the dense kernels, which stream the buffer instead of gathering
 * through the list. Choco-Q trajectories stay under it (at most 16 of
 * 128 amplitudes on F1, 1,024 of 131,072 on K2); the penalty and HEA
 * baselines cross it within their first ansatz layer.
 */
constexpr std::size_t kDenseSwitchDivisor = 8;

/**
 * Support tracking for one noisy trajectory on a dense state, through a
 * caller-owned index list and membership map (a sampler reuses both
 * across trajectories). The list holds every index whose amplitude may
 * be nonzero (every amplitude off it is +0 or -0), and a byte per
 * index marks membership. Each update evaluates the matching
 * StateVector kernel's per-amplitude expression on the same
 * amplitudes, so every amplitude equals the dense path's as a double
 * (only the sign of a zero can differ) and every probability is
 * bit-identical.
 */
class TrackedSupport
{
  public:
    /** Track @p state through @p list and @p listed. Nothing is listed
     * yet: scan() or zero() sets the trajectory up. */
    TrackedSupport(StateVector &state, std::vector<std::uint32_t> &list,
                   std::vector<std::uint8_t> &listed)
        : state_(state), limit_(state.dim() / kDenseSwitchDivisor),
          list_(list), listed_(listed)
    {
        // A pair gate at most doubles the list before compaction, so
        // this capacity serves the whole trajectory.
        list_.clear();
        list_.reserve(2 * limit_);
    }

    /** List the nonzero amplitudes of the state; past the dense switch
     * the whole trajectory runs on the dense kernels. */
    void
    scan()
    {
        const CVec &amp = state_.amplitudes();
        for (std::size_t i = 0; i < amp.size(); ++i)
            if (amp[i] != Cplx{}) {
                if (list_.size() == limit_)
                    return;
                list_.push_back(static_cast<std::uint32_t>(i));
            }
        listed_.assign(amp.size(), 0);
        for (const std::uint32_t i : list_)
            listed_[i] = 1;
        active_ = true;
    }

    /**
     * Zero every amplitude and unlist every index, leaving the blank a
     * fork starts from. While tracked only the listed indices are
     * touched, since every other amplitude is already a zero.
     */
    void
    zero()
    {
        Cplx *amp = state_.amplitudes().data();
        if (active_) {
            for (const std::uint32_t i : list_) {
                amp[i] = Cplx{};
                listed_[i] = 0;
            }
        } else {
            std::fill(amp, amp + state_.dim(), Cplx{});
            listed_.assign(state_.dim(), 0);
        }
        list_.clear();
        active_ = true;
    }

    /**
     * Become a copy of @p clean, a trajectory on a state of the same
     * width; this one must be zero(). While @p clean is tracked only
     * its listed amplitudes are copied, in its list order.
     */
    void
    forkFrom(const TrackedSupport &clean)
    {
        active_ = clean.active_;
        if (!active_) {
            state_.amplitudes() = clean.state_.amplitudes();
            return;
        }
        Cplx *amp = state_.amplitudes().data();
        const Cplx *from = clean.state_.amplitudes().data();
        list_ = clean.list_;
        for (const std::uint32_t i : list_) {
            amp[i] = from[i];
            listed_[i] = 1;
        }
    }

    /** Apply @p g: on the list while tracked and @p g is a lowered
     * gate, else on the dense kernels. */
    void
    step(const Gate &g)
    {
        if (!active_ || !tryApply(g))
            applyGate(state_, g);
    }

    /** Apply the Pauli error @p e. */
    void
    error(const PauliError &e)
    {
        const Pauli &m = kPaulis[e.pauli];
        const int q = static_cast<int>(e.qubit);
        if (active_)
            pair(0, q, m.m00, m.m01, m.m10, m.m11, obs::KernelId::Apply1q);
        else
            state_.apply1q(q, m.m00, m.m01, m.m10, m.m11);
    }

    /**
     * Refill @p cdf as StateVector::cumulate would: from the list in
     * ascending index order while tracked (every amplitude off it is a
     * zero, which that dense scan skips), else by the dense scan. The
     * sums meet the same terms in the same order, so the table is
     * bit-identical. Sorts the list.
     */
    void
    cumulate(Cdf &cdf)
    {
        if (!active_) {
            state_.cumulate(cdf);
            return;
        }
        std::sort(list_.begin(), list_.end());
        cdf.clear();
        const Cplx *amp = state_.amplitudes().data();
        for (const std::uint32_t i : list_)
            cdf.add(i, std::norm(amp[i]));
    }

  private:
    /**
     * Apply @p g on the list if it is one of the lowered gate types
     * (H, X, RZ, CX). Any other gate returns false untouched and hands
     * the rest of the trajectory to the dense kernels. Arguments match
     * applyGate's calls.
     */
    bool
    tryApply(const Gate &g)
    {
        switch (g.type) {
          case GateType::H:
            pair(0, g.qubits[0], kInvSqrt2, kInvSqrt2, kInvSqrt2,
                 -kInvSqrt2, obs::KernelId::Apply1q);
            return true;
          case GateType::X:
            pair(0, g.qubits[0], 0, 1, 1, 0, obs::KernelId::Apply1q);
            return true;
          case GateType::RZ: {
            const Cplx em{std::cos(g.param / 2), -std::sin(g.param / 2)};
            diagonal1q(g.qubits[0], em, std::conj(em));
            return true;
          }
          case GateType::CX:
            pair(Basis{1} << g.qubits[0], g.qubits[1], 0, 1, 1, 0,
                 obs::KernelId::Controlled1q);
            return true;
          default:
            active_ = false;
            return false;
        }
    }

    /**
     * The 2x2 gate of apply1q (@p control 0) or applyControlled1q on
     * every pair (i & ~bit, i | bit) with a listed member whose
     * @p control bits are all set. A pair is updated once: from its
     * low index when that is listed, else from its high one. Missing
     * partners join the list; if any did, the exact zeros leave it.
     */
    void
    pair(Basis control, int q, Cplx m00, Cplx m01, Cplx m10, Cplx m11,
         obs::KernelId id)
    {
        const Basis bit = Basis{1} << q;
        Cplx *amp = state_.amplitudes().data();
        const std::size_t listed = list_.size();
        std::size_t pairs = 0;
        for (std::size_t k = 0; k < listed; ++k) {
            const Basis i = list_[k];
            if ((i & control) != control)
                continue;
            const Basis i0 = i & ~bit;
            const Basis i1 = i | bit;
            if (i == i1 && listed_[i0])
                continue;
            const Cplx a0 = amp[i0];
            const Cplx a1 = amp[i1];
            amp[i0] = m00 * a0 + m01 * a1;
            amp[i1] = m10 * a0 + m11 * a1;
            ++pairs;
            const Basis partner = i ^ bit;
            if (!listed_[partner]) {
                listed_[partner] = 1;
                list_.push_back(static_cast<std::uint32_t>(partner));
            }
        }
        record(id, 2 * pairs);
        if (list_.size() > listed)
            dropZeros();
    }

    /** applyDiagonal1q on the listed amplitudes. */
    void
    diagonal1q(int q, Cplx d0, Cplx d1)
    {
        const Basis bit = Basis{1} << q;
        Cplx *amp = state_.amplitudes().data();
        for (const Basis i : list_)
            amp[i] *= (i & bit) ? d1 : d0;
        record(obs::KernelId::Diagonal1q, list_.size());
    }

    /**
     * Unlist every index whose amplitude is now exactly zero (an X or
     * a Pauli error moves the support rather than growing it), then
     * release to the dense kernels if the list still passes the limit.
     */
    void
    dropZeros()
    {
        const Cplx *amp = state_.amplitudes().data();
        std::size_t kept = 0;
        for (const std::uint32_t i : list_) {
            if (amp[i] != Cplx{})
                list_[kept++] = i;
            else
                listed_[i] = 0;
        }
        list_.resize(kept);
        if (kept > limit_)
            active_ = false;
    }

    void
    record(obs::KernelId id, std::size_t amps)
    {
        if (obs::KernelCounterSink *sink = state_.counterSink())
            sink->record(id, amps);
    }

    StateVector &state_;
    std::size_t limit_;
    bool active_ = false;
    std::vector<std::uint32_t> &list_;
    std::vector<std::uint8_t> &listed_;
};

/**
 * Refill @p out with the places a Pauli error can strike on @p c, in
 * the order the per-gate loop draws them: each operand of each gate
 * whose error probability is positive.
 */
void
errorSites(const circuit::Circuit &c, const NoiseModel &noise,
           std::vector<ErrorSite> &out)
{
    out.clear();
    const auto &gates = c.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
        const double p =
            gates[g].qubits.size() >= 2 ? noise.p2q : noise.p1q;
        if (p <= 0.0)
            continue;
        for (const int q : gates[g].qubits)
            out.push_back({static_cast<std::uint32_t>(g),
                           static_cast<std::uint32_t>(q), p});
    }
}

/** Append one trajectory's Pauli errors to @p out: one chance(p) per
 * site and one intIn(0, 2) per hit. */
void
drawErrors(const std::vector<ErrorSite> &sites, Rng &rng,
           std::vector<PauliError> &out)
{
    for (const ErrorSite &s : sites)
        if (rng.chance(s.p))
            out.push_back({s.gate, s.qubit,
                           static_cast<std::uint32_t>(rng.intIn(0, 2))});
}

/** The errors of [e, end) drawn at gate @p g, applied to @p s; returns
 * the first error past them. */
const PauliError *
applyErrors(TrackedSupport &s, std::uint32_t g, const PauliError *e,
            const PauliError *end)
{
    for (; e != end && e->gate == g; ++e)
        s.error(*e);
    return e;
}

/** Gates [from, to) on @p s, each followed by its errors from
 * [e, end), which are in gate order and none drawn before @p from. */
void
run(TrackedSupport &s, const std::vector<Gate> &gates, std::uint32_t from,
    std::uint32_t to, const PauliError *e, const PauliError *end)
{
    for (std::uint32_t g = from; g < to; ++g) {
        s.step(gates[g]);
        e = applyErrors(s, g, e, end);
    }
}

} // namespace

void
applyGate(StateVector &state, const Gate &g)
{
    const double theta = g.param;
    switch (g.type) {
      case GateType::H:
        state.apply1q(g.qubits[0], kInvSqrt2, kInvSqrt2, kInvSqrt2,
                      -kInvSqrt2);
        return;
      case GateType::X:
        state.apply1q(g.qubits[0], 0, 1, 1, 0);
        return;
      case GateType::RX: {
        const Cplx c{std::cos(theta / 2), 0.0};
        const Cplx ms{0.0, -std::sin(theta / 2)};
        state.apply1q(g.qubits[0], c, ms, ms, c);
        return;
      }
      case GateType::RY: {
        const double c = std::cos(theta / 2);
        const double s = std::sin(theta / 2);
        state.apply1q(g.qubits[0], c, -s, s, c);
        return;
      }
      case GateType::RZ: {
        const Cplx em{std::cos(theta / 2), -std::sin(theta / 2)};
        state.applyDiagonal1q(g.qubits[0], em, std::conj(em));
        return;
      }
      case GateType::CX:
        state.applyControlled1q(Basis{1} << g.qubits[0], g.qubits[1], 0, 1,
                                1, 0);
        return;
      case GateType::XY:
        // exp(-i theta (XX + YY)) is the commute term Hc(e_a - e_b) at
        // 2 theta: it mixes |1_a 0_b> with |0_a 1_b>.
        CHOCOQ_ASSERT(g.qubits[0] != g.qubits[1], "XY on identical qubits");
        state.applyPairRotation(maskOf(g.qubits),
                                Basis{1} << g.qubits[0],
                                std::cos(2.0 * theta), std::sin(2.0 * theta));
        return;
      case GateType::MCP:
        state.applyPhaseMask(maskOf(g.qubits), theta);
        return;
    }
    CHOCOQ_ASSERT(false, "unhandled gate in executor");
}

void
execute(StateVector &state, const circuit::Circuit &c,
        const std::function<void(std::size_t)> &after_gate)
{
    CHOCOQ_ASSERT(state.numQubits() >= c.numQubits(),
                  "state narrower than circuit");
    for (std::size_t i = 0; i < c.gates().size(); ++i) {
        applyGate(state, c.gates()[i]);
        if (after_gate)
            after_gate(i);
    }
}

void
executeNoisy(StateVector &state, const circuit::Circuit &c,
             const NoiseModel &noise, Rng &rng)
{
    CHOCOQ_ASSERT(state.numQubits() >= c.numQubits(),
                  "state narrower than circuit");
    CHOCOQ_ASSERT(c.gates().size() < UINT32_MAX, "circuit too long");
    std::vector<ErrorSite> sites;
    errorSites(c, noise, sites);
    std::vector<PauliError> errors;
    drawErrors(sites, rng, errors);
    std::vector<std::uint32_t> list;
    std::vector<std::uint8_t> listed;
    TrackedSupport support(state, list, listed);
    support.scan();
    run(support, c.gates(), 0, static_cast<std::uint32_t>(c.gates().size()),
        errors.data(), errors.data() + errors.size());
}

std::map<Basis, int>
NoisySampler::sample(const circuit::Circuit &c, const NoiseModel &noise,
                     int trajectories, int shots, Rng &rng,
                     obs::KernelCounterSink *sink,
                     const std::function<void()> &checkpoint)
{
    const auto &gates = c.gates();
    CHOCOQ_ASSERT(gates.size() < UINT32_MAX, "circuit too long");
    const auto num_gates = static_cast<std::uint32_t>(gates.size());
    const int n = c.numQubits();

    // Draw pass, in the generator order of the per-trajectory loop. A
    // trajectory's shots are skipped, not stored: a copy of the
    // generator taken before them replays them, so memory stays
    // O(trajectories + errors) whatever the shot count.
    errorSites(c, noise, sites_);
    errors_.clear();
    draws_.clear();
    for (int t = 0; t < trajectories; ++t) {
        if (checkpoint)
            checkpoint();
        const auto begin = static_cast<std::uint32_t>(errors_.size());
        drawErrors(sites_, rng, errors_);
        const auto end = static_cast<std::uint32_t>(errors_.size());
        draws_.push_back(
            {begin < end ? errors_[begin].gate : num_gates, begin, end, rng});
        drawShots(rng, shots, n, noise.readout, [](double, Basis) {});
    }
    // Fork order: by first error gate, error-free trajectories last.
    order_.resize(draws_.size());
    std::iota(order_.begin(), order_.end(), std::uint32_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return draws_[a].firstGate < draws_[b].firstGate;
                     });

    // The sink rides both states for this call only: the sampler
    // outlives the job that lends it.
    struct SinkGuard
    {
        StateVector &clean, &work;
        ~SinkGuard()
        {
            clean.setCounterSink(nullptr);
            work.setCounterSink(nullptr);
        }
    } sink_guard{clean_, work_};
    clean_.prepare(n);
    work_.prepare(n);
    clean_.setCounterSink(sink);
    work_.setCounterSink(sink);
    TrackedSupport clean(clean_, cleanList_, cleanListed_);
    clean.scan();
    TrackedSupport work(work_, workList_, workListed_);
    work.zero();

    std::map<Basis, int> counts;
    const auto shoot = [&](const Draws &d) {
        CHOCOQ_ASSERT(cdf_.total() > 1e-9, "sampling a zero state");
        Rng replay = d.shots;
        drawShots(replay, shots, n, noise.readout,
                  [&](double u, Basis flipped) {
                      ++counts[cdf_.pick(u) ^ flipped];
                  });
    };
    // The clean state has applied gates [0, at). Each trajectory forks
    // from it right after the gate of its first error.
    std::uint32_t at = 0;
    std::size_t k = 0;
    for (; k < order_.size(); ++k) {
        const Draws &d = draws_[order_[k]];
        if (d.firstGate == num_gates)
            break;
        if (checkpoint)
            checkpoint();
        run(clean, gates, at, d.firstGate + 1, nullptr, nullptr);
        at = d.firstGate + 1;
        work.forkFrom(clean);
        const PauliError *end = errors_.data() + d.end;
        run(work, gates, at, num_gates,
            applyErrors(work, d.firstGate, errors_.data() + d.begin, end),
            end);
        work.cumulate(cdf_);
        shoot(d);
        work.zero();
    }
    // Error-free trajectories share the clean final state and its CDF.
    if (k < order_.size()) {
        run(clean, gates, at, num_gates, nullptr, nullptr);
        clean.cumulate(cdf_);
        for (; k < order_.size(); ++k)
            shoot(draws_[order_[k]]);
    }
    return counts;
}

} // namespace chocoq::sim
