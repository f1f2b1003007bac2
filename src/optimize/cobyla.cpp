#include "optimize/optimizer.hpp"

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

} // namespace

OptResult
cobyla(const ObjectiveFn &f, const std::vector<double> &x0,
       const OptOptions &opts)
{
    const std::size_t m = x0.size();
    CHOCOQ_ASSERT(m >= 1, "cobyla needs at least one parameter");

    OptResult out;
    double rho = opts.initialStep;

    // Simplex: vertex 0 plus axis offsets, all with cached values.
    std::vector<std::vector<double>> verts(m + 1, x0);
    std::vector<double> vals(m + 1, 0.0);
    auto eval = [&](const std::vector<double> &x) {
        ++out.evaluations;
        return f(x);
    };
    vals[0] = eval(verts[0]);
    for (std::size_t i = 0; i < m; ++i) {
        verts[i + 1][i] += rho;
        vals[i + 1] = eval(verts[i + 1]);
    }

    auto best_index = [&]() {
        return static_cast<std::size_t>(
            std::min_element(vals.begin(), vals.end()) - vals.begin());
    };
    auto worst_index = [&]() {
        return static_cast<std::size_t>(
            std::max_element(vals.begin(), vals.end()) - vals.begin());
    };

    auto rebuild = [&](std::size_t around) {
        const std::vector<double> center = verts[around];
        const double center_val = vals[around];
        verts.assign(m + 1, center);
        vals.assign(m + 1, center_val);
        for (std::size_t i = 0; i < m; ++i) {
            verts[i + 1][i] += rho;
            vals[i + 1] = eval(verts[i + 1]);
        }
    };

    for (int iter = 0; iter < opts.maxIterations; ++iter) {
        if (opts.checkpoint)
            opts.checkpoint();
        ++out.iterations;
        const std::size_t bi = best_index();

        // Linear model around the best vertex: (v_j - v_b) . g = f_j - f_b.
        std::vector<std::vector<double>> a;
        std::vector<double> b;
        for (std::size_t j = 0; j <= m; ++j) {
            if (j == bi)
                continue;
            std::vector<double> row(m);
            for (std::size_t c = 0; c < m; ++c)
                row[c] = verts[j][c] - verts[bi][c];
            a.push_back(std::move(row));
            b.push_back(vals[j] - vals[bi]);
        }
        std::vector<double> g;
        if (!solveLinear(std::move(a), std::move(b), g)) {
            // Degenerate geometry: re-anchor an axis simplex.
            rebuild(bi);
            out.trace.push_back({out.iterations, vals[best_index()]});
            continue;
        }
        double gn = 0.0;
        for (double v : g)
            gn += v * v;
        gn = std::sqrt(gn);
        if (gn < 1e-14) {
            rho *= 0.5;
            if (rho < opts.tolerance)
                break;
            rebuild(bi);
            out.trace.push_back({out.iterations, vals[best_index()]});
            continue;
        }

        // Trust-region step against the model gradient.
        std::vector<double> cand = verts[bi];
        for (std::size_t c = 0; c < m; ++c)
            cand[c] -= rho * g[c] / gn;
        const double cand_val = eval(cand);

        const std::size_t wi = worst_index();
        if (cand_val < vals[bi]) {
            // Good step: replace the worst vertex and keep the radius.
            verts[wi] = std::move(cand);
            vals[wi] = cand_val;
        } else if (cand_val < vals[wi]) {
            // Mild progress: still improves the simplex.
            verts[wi] = std::move(cand);
            vals[wi] = cand_val;
            rho *= 0.7;
        } else {
            rho *= 0.5;
        }
        out.trace.push_back({out.iterations, vals[best_index()]});
        if (rho < opts.tolerance)
            break;
    }

    const std::size_t bi = best_index();
    out.best = verts[bi];
    out.bestValue = vals[bi];
    return out;
}

} // namespace chocoq::optimize
