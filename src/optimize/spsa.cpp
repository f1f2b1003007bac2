#include "optimize/spsa.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace chocoq::optimize
{

namespace
{

/**
 * SPSA step machine. Stage flow:
 *   Init (evaluate x0) -> per iteration k: checkpoint, draw delta,
 *   Plus (evaluate x + ck delta) -> Minus (evaluate x - ck delta),
 *   update x / best / trace -> next iteration or Final (evaluate the
 *   final iterate) -> Done.
 * The evaluation sequence, random draws, and update arithmetic are
 * verbatim the pre-machine sequential loop, so driving this machine is
 * bit-identical to it (evaluations = 1 + 2*iterations + 1).
 */
class SpsaRun final : public OptimizerRun
{
  public:
    SpsaRun(std::uint64_t ctor_seed, const std::vector<double> &x0,
            const OptOptions &opts)
        : opts_(opts),
          // Both seeds feed the stream: the per-call options seed
          // (distinct per multi-start restart) and the construction
          // seed (distinct per job).
          rng_(ctor_seed == 0
                   ? opts.seed
                   : opts.seed ^ (ctor_seed * 0x9E3779B97F4A7C15ull)),
          m_(x0.size()), x_(x0), best_(x0), a_(opts.initialStep),
          c_(std::max(0.1 * opts.initialStep, 1e-3)),
          big_a_(0.1 * opts.maxIterations), delta_(m_), xp_(m_), xm_(m_)
    {
        CHOCOQ_ASSERT(m_ >= 1, "spsa needs at least one parameter");
    }

    bool finished() const override { return stage_ == Stage::Done; }

    const std::vector<double> &
    pending() const override
    {
        CHOCOQ_ASSERT(stage_ != Stage::Done, "pending() on finished run");
        switch (stage_) {
        case Stage::Plus:
            return xp_;
        case Stage::Minus:
            return xm_;
        default:
            // Init probes x0 (== x_) and Final probes the last iterate.
            return x_;
        }
    }

    void
    supply(double value) override
    {
        CHOCOQ_ASSERT(stage_ != Stage::Done, "supply() on finished run");
        ++out_.evaluations;
        switch (stage_) {
        case Stage::Init:
            best_val_ = value;
            beginIteration();
            break;
        case Stage::Plus:
            fp_ = value;
            stage_ = Stage::Minus;
            break;
        case Stage::Minus: {
            const double fm = value;
            for (std::size_t i = 0; i < m_; ++i)
                x_[i] -= ak_ * (fp_ - fm) / (2.0 * ck_ * delta_[i]);
            const double fx = std::min(fp_, fm);
            const auto &cand = fp_ < fm ? xp_ : xm_;
            if (fx < best_val_) {
                best_val_ = fx;
                best_ = cand;
            }
            out_.trace.push_back({out_.iterations, best_val_});
            if (ak_ < opts_.tolerance) {
                stage_ = Stage::Final;
            } else {
                ++k_;
                beginIteration();
            }
            break;
        }
        case Stage::Final:
            // Final candidate may beat the best perturbed point.
            if (value < best_val_) {
                best_val_ = value;
                best_ = x_;
            }
            out_.best = best_;
            out_.bestValue = best_val_;
            stage_ = Stage::Done;
            break;
        case Stage::Done:
            break;
        }
    }

    const OptResult &result() const override { return out_; }

  private:
    enum class Stage { Init, Plus, Minus, Final, Done };

    void
    beginIteration()
    {
        if (k_ >= opts_.maxIterations) {
            stage_ = Stage::Final;
            return;
        }
        if (opts_.checkpoint)
            opts_.checkpoint();
        ++out_.iterations;
        ak_ = a_ / std::pow(k_ + 1.0 + big_a_, 0.602);
        ck_ = c_ / std::pow(k_ + 1.0, 0.101);
        for (std::size_t i = 0; i < m_; ++i)
            delta_[i] = rng_.chance(0.5) ? 1.0 : -1.0;
        for (std::size_t i = 0; i < m_; ++i) {
            xp_[i] = x_[i] + ck_ * delta_[i];
            xm_[i] = x_[i] - ck_ * delta_[i];
        }
        stage_ = Stage::Plus;
    }

    const OptOptions opts_;
    Rng rng_;
    const std::size_t m_;
    std::vector<double> x_;
    std::vector<double> best_;
    double best_val_ = 0.0;
    const double a_;
    const double c_;
    const double big_a_;
    std::vector<double> delta_, xp_, xm_;
    int k_ = 0;
    double ak_ = 0.0, ck_ = 0.0, fp_ = 0.0;
    Stage stage_ = Stage::Init;
    OptResult out_;
};

} // namespace

std::unique_ptr<OptimizerRun>
Spsa::start(const std::vector<double> &x0, const OptOptions &opts) const
{
    return std::make_unique<SpsaRun>(seed_, x0, opts);
}

} // namespace chocoq::optimize
