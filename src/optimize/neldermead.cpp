#include "optimize/neldermead.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace chocoq::optimize
{

namespace
{

constexpr double kAlpha = 1.0;  // reflection
constexpr double kGamma = 2.0;  // expansion
constexpr double kRho = 0.5;    // contraction
constexpr double kSigma = 0.5;  // shrink

/**
 * Nelder-Mead step machine. Stage flow:
 *   InitVertex (evaluate the m+1 simplex vertices in index order) ->
 *   per iteration: checkpoint, sort, trace, terminate on spread, then
 *   Reflect -> (accept | Expand | Contract -> (accept | ShrinkVertex,
 *   evaluating the shrunk non-best vertices in index order)) -> next
 *   iteration or Done.
 * Evaluation order, vertex updates, and trace pushes are verbatim the
 * pre-machine sequential loop (bit-identical when driven one value at
 * a time).
 */
class NelderMeadRun final : public OptimizerRun
{
  public:
    NelderMeadRun(const std::vector<double> &x0, const OptOptions &opts)
        : opts_(opts), m_(x0.size()), verts_(m_ + 1, x0),
          vals_(m_ + 1, 0.0), order_(m_ + 1), centroid_(m_)
    {
        CHOCOQ_ASSERT(m_ >= 1, "nelder-mead needs at least one parameter");
        for (std::size_t i = 0; i < m_; ++i)
            verts_[i + 1][i] += opts.initialStep;
    }

    bool finished() const override { return stage_ == Stage::Done; }

    const std::vector<double> &
    pending() const override
    {
        CHOCOQ_ASSERT(stage_ != Stage::Done, "pending() on finished run");
        switch (stage_) {
        case Stage::Reflect:
            return refl_;
        case Stage::Expand:
            return expd_;
        case Stage::Contract:
            return contr_;
        default:
            return verts_[idx_];
        }
    }

    void
    supply(double value) override
    {
        CHOCOQ_ASSERT(stage_ != Stage::Done, "supply() on finished run");
        ++out_.evaluations;
        switch (stage_) {
        case Stage::InitVertex:
            vals_[idx_] = value;
            if (++idx_ > m_)
                startIteration();
            break;
        case Stage::Reflect:
            refl_val_ = value;
            if (refl_val_ < vals_[best_]) {
                blend(kGamma, expd_);
                stage_ = Stage::Expand;
            } else if (refl_val_ < vals_[second_worst_]) {
                verts_[worst_] = std::move(refl_);
                vals_[worst_] = refl_val_;
                startIteration();
            } else {
                blend(-kRho, contr_);
                stage_ = Stage::Contract;
            }
            break;
        case Stage::Expand:
            if (value < refl_val_) {
                verts_[worst_] = std::move(expd_);
                vals_[worst_] = value;
            } else {
                verts_[worst_] = std::move(refl_);
                vals_[worst_] = refl_val_;
            }
            startIteration();
            break;
        case Stage::Contract:
            if (value < vals_[worst_]) {
                verts_[worst_] = std::move(contr_);
                vals_[worst_] = value;
                startIteration();
            } else {
                beginShrink();
            }
            break;
        case Stage::ShrinkVertex:
            vals_[idx_] = value;
            advanceShrink();
            break;
        case Stage::Done:
            break;
        }
    }

    const OptResult &result() const override { return out_; }

  private:
    enum class Stage
    {
        InitVertex,
        Reflect,
        Expand,
        Contract,
        ShrinkVertex,
        Done
    };

    /** centroid + coeff * (centroid - worst vertex) -> @p x. */
    void
    blend(double coeff, std::vector<double> &x)
    {
        x.resize(m_);
        for (std::size_t c = 0; c < m_; ++c)
            x[c] = centroid_[c] + coeff * (centroid_[c] - verts_[worst_][c]);
    }

    void
    startIteration()
    {
        if (out_.iterations >= opts_.maxIterations) {
            finish();
            return;
        }
        if (opts_.checkpoint)
            opts_.checkpoint();
        ++out_.iterations;
        std::iota(order_.begin(), order_.end(), 0);
        std::sort(order_.begin(), order_.end(),
                  [&](std::size_t a, std::size_t b) {
                      return vals_[a] < vals_[b];
                  });
        best_ = order_.front();
        worst_ = order_.back();
        second_worst_ = order_[m_ - 1];

        // Termination on simplex size.
        double spread = 0.0;
        for (std::size_t c = 0; c < m_; ++c)
            spread = std::max(
                spread, std::abs(verts_[best_][c] - verts_[worst_][c]));
        out_.trace.push_back({out_.iterations, vals_[best_]});
        if (spread < opts_.tolerance) {
            finish();
            return;
        }

        // Centroid of all but the worst.
        std::fill(centroid_.begin(), centroid_.end(), 0.0);
        for (std::size_t i = 0; i <= m_; ++i) {
            if (i == worst_)
                continue;
            for (std::size_t c = 0; c < m_; ++c)
                centroid_[c] += verts_[i][c];
        }
        for (double &v : centroid_)
            v /= static_cast<double>(m_);

        blend(kAlpha, refl_);
        stage_ = Stage::Reflect;
    }

    void
    beginShrink()
    {
        // Shrink towards the best vertex: the vertex updates are
        // mutually independent, so applying them all up front and then
        // evaluating in ascending index order (skipping the best)
        // reproduces the sequential update-then-evaluate loop exactly.
        for (std::size_t i = 0; i <= m_; ++i) {
            if (i == best_)
                continue;
            for (std::size_t c = 0; c < m_; ++c)
                verts_[i][c] = verts_[best_][c]
                               + kSigma * (verts_[i][c] - verts_[best_][c]);
        }
        idx_ = best_ == 0 ? 1 : 0;
        stage_ = Stage::ShrinkVertex;
    }

    void
    advanceShrink()
    {
        ++idx_;
        if (idx_ == best_)
            ++idx_;
        if (idx_ > m_)
            startIteration();
    }

    void
    finish()
    {
        const std::size_t bi = static_cast<std::size_t>(
            std::min_element(vals_.begin(), vals_.end()) - vals_.begin());
        out_.best = verts_[bi];
        out_.bestValue = vals_[bi];
        stage_ = Stage::Done;
    }

    const OptOptions opts_;
    const std::size_t m_;
    std::vector<std::vector<double>> verts_;
    std::vector<double> vals_;
    std::vector<std::size_t> order_;
    std::vector<double> centroid_;
    std::vector<double> refl_, expd_, contr_;
    double refl_val_ = 0.0;
    std::size_t idx_ = 0;
    std::size_t best_ = 0, worst_ = 0, second_worst_ = 0;
    Stage stage_ = Stage::InitVertex;
    OptResult out_;
};

} // namespace

std::unique_ptr<OptimizerRun>
NelderMead::start(const std::vector<double> &x0, const OptOptions &opts) const
{
    return std::make_unique<NelderMeadRun>(x0, opts);
}

} // namespace chocoq::optimize
