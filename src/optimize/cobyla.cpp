#include "optimize/cobyla.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace chocoq::optimize
{

namespace
{

/** Solve A x = b (dense, small) with partial pivoting; returns false when
 * the system is numerically singular. */
bool
solveLinear(std::vector<std::vector<double>> a, std::vector<double> b,
            std::vector<double> &x)
{
    const std::size_t m = b.size();
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t piv = col;
        for (std::size_t r = col + 1; r < m; ++r)
            if (std::abs(a[r][col]) > std::abs(a[piv][col]))
                piv = r;
        if (std::abs(a[piv][col]) < 1e-12)
            return false;
        std::swap(a[piv], a[col]);
        std::swap(b[piv], b[col]);
        for (std::size_t r = col + 1; r < m; ++r) {
            const double factor = a[r][col] / a[col][col];
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < m; ++c)
                a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }
    x.assign(m, 0.0);
    for (std::size_t ri = m; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t c = ri + 1; c < m; ++c)
            acc -= a[ri][c] * x[c];
        x[ri] = acc / a[ri][ri];
    }
    return true;
}

/**
 * COBYLA step machine. Stage flow:
 *   InitVertex (evaluate vertex 0 then the m axis vertices) -> per
 *   iteration: checkpoint, fit the linear model around the best vertex;
 *   degenerate geometry or tiny gradient re-anchors an axis simplex
 *   (RebuildVertex evaluates its m fresh vertices), otherwise Candidate
 *   evaluates the trust-region step and the simplex/radius update runs
 *   -> next iteration or Done.
 * Evaluation order, radius updates, and trace pushes are verbatim the
 * pre-machine sequential loop (bit-identical when driven one value at
 * a time).
 */
class CobylaRun final : public OptimizerRun
{
  public:
    CobylaRun(const std::vector<double> &x0, const OptOptions &opts)
        : opts_(opts), m_(x0.size()), rho_(opts.initialStep),
          verts_(m_ + 1, x0), vals_(m_ + 1, 0.0)
    {
        CHOCOQ_ASSERT(m_ >= 1, "cobyla needs at least one parameter");
        // Simplex: vertex 0 plus axis offsets.
        for (std::size_t i = 0; i < m_; ++i)
            verts_[i + 1][i] += rho_;
    }

    bool finished() const override { return stage_ == Stage::Done; }

    const std::vector<double> &
    pending() const override
    {
        CHOCOQ_ASSERT(stage_ != Stage::Done, "pending() on finished run");
        if (stage_ == Stage::Candidate)
            return cand_;
        return verts_[idx_];
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
        case Stage::RebuildVertex:
            vals_[idx_] = value;
            if (++idx_ > m_) {
                out_.trace.push_back({out_.iterations, vals_[bestIndex()]});
                startIteration();
            }
            break;
        case Stage::Candidate: {
            const double cand_val = value;
            const std::size_t wi = worstIndex();
            if (cand_val < vals_[bi_]) {
                // Good step: replace the worst vertex and keep the radius.
                verts_[wi] = std::move(cand_);
                vals_[wi] = cand_val;
            } else if (cand_val < vals_[wi]) {
                // Mild progress: still improves the simplex.
                verts_[wi] = std::move(cand_);
                vals_[wi] = cand_val;
                rho_ *= 0.7;
            } else {
                rho_ *= 0.5;
            }
            out_.trace.push_back({out_.iterations, vals_[bestIndex()]});
            if (rho_ < opts_.tolerance)
                finish();
            else
                startIteration();
            break;
        }
        case Stage::Done:
            break;
        }
    }

    const OptResult &result() const override { return out_; }

  private:
    enum class Stage { InitVertex, Candidate, RebuildVertex, Done };

    std::size_t
    bestIndex() const
    {
        return static_cast<std::size_t>(
            std::min_element(vals_.begin(), vals_.end()) - vals_.begin());
    }

    std::size_t
    worstIndex() const
    {
        return static_cast<std::size_t>(
            std::max_element(vals_.begin(), vals_.end()) - vals_.begin());
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
        bi_ = bestIndex();

        // Linear model around the best vertex: (v_j - v_b) . g = f_j - f_b.
        std::vector<std::vector<double>> a;
        std::vector<double> b;
        for (std::size_t j = 0; j <= m_; ++j) {
            if (j == bi_)
                continue;
            std::vector<double> row(m_);
            for (std::size_t c = 0; c < m_; ++c)
                row[c] = verts_[j][c] - verts_[bi_][c];
            a.push_back(std::move(row));
            b.push_back(vals_[j] - vals_[bi_]);
        }
        std::vector<double> g;
        if (!solveLinear(std::move(a), std::move(b), g)) {
            // Degenerate geometry: re-anchor an axis simplex.
            beginRebuild();
            return;
        }
        double gn = 0.0;
        for (double v : g)
            gn += v * v;
        gn = std::sqrt(gn);
        if (gn < 1e-14) {
            rho_ *= 0.5;
            if (rho_ < opts_.tolerance) {
                finish();
                return;
            }
            beginRebuild();
            return;
        }

        // Trust-region step against the model gradient.
        cand_ = verts_[bi_];
        for (std::size_t c = 0; c < m_; ++c)
            cand_[c] -= rho_ * g[c] / gn;
        stage_ = Stage::Candidate;
    }

    void
    beginRebuild()
    {
        const std::vector<double> center = verts_[bi_];
        const double center_val = vals_[bi_];
        verts_.assign(m_ + 1, center);
        vals_.assign(m_ + 1, center_val);
        for (std::size_t i = 0; i < m_; ++i)
            verts_[i + 1][i] += rho_;
        idx_ = 1;
        stage_ = Stage::RebuildVertex;
    }

    void
    finish()
    {
        const std::size_t bi = bestIndex();
        out_.best = verts_[bi];
        out_.bestValue = vals_[bi];
        stage_ = Stage::Done;
    }

    const OptOptions opts_;
    const std::size_t m_;
    double rho_;
    std::vector<std::vector<double>> verts_;
    std::vector<double> vals_;
    std::vector<double> cand_;
    std::size_t idx_ = 0;
    std::size_t bi_ = 0;
    Stage stage_ = Stage::InitVertex;
    OptResult out_;
};

} // namespace

std::unique_ptr<OptimizerRun>
Cobyla::start(const std::vector<double> &x0, const OptOptions &opts) const
{
    return std::make_unique<CobylaRun>(x0, opts);
}

} // namespace chocoq::optimize
