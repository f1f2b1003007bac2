#include "model/polynomial.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace chocoq::model
{

Polynomial
Polynomial::constant(double c)
{
    Polynomial p;
    p.addTerm({}, c);
    return p;
}

Polynomial
Polynomial::variable(int v, double c)
{
    Polynomial p;
    p.addTerm({v}, c);
    return p;
}

Polynomial
Polynomial::affine(const std::vector<double> &coeffs, double c0)
{
    Polynomial p;
    p.addTerm({}, c0);
    for (std::size_t i = 0; i < coeffs.size(); ++i)
        p.addTerm({static_cast<int>(i)}, coeffs[i]);
    return p;
}

void
Polynomial::addTerm(Monomial vars, double coeff)
{
    if (coeff == 0.0)
        return;
    std::sort(vars.begin(), vars.end());
    for (std::size_t i = 0; i + 1 < vars.size(); ++i)
        CHOCOQ_ASSERT(vars[i] != vars[i + 1],
                      "monomial with repeated variable");
    for (int v : vars)
        CHOCOQ_ASSERT(v >= 0, "negative variable index");
    auto it = terms_.find(vars);
    if (it == terms_.end()) {
        terms_.emplace(std::move(vars), coeff);
    } else {
        it->second += coeff;
        if (it->second == 0.0)
            terms_.erase(it);
    }
}

int
Polynomial::degree() const
{
    std::size_t d = 0;
    for (const auto &[vars, c] : terms_)
        d = std::max(d, vars.size());
    return static_cast<int>(d);
}

int
Polynomial::maxVar() const
{
    int m = -1;
    for (const auto &[vars, c] : terms_)
        if (!vars.empty())
            m = std::max(m, vars.back());
    return m;
}

double
Polynomial::evaluate(Basis idx) const
{
    double acc = 0.0;
    for (const auto &[vars, c] : terms_) {
        bool all = true;
        for (int v : vars) {
            if (!getBit(idx, v)) {
                all = false;
                break;
            }
        }
        if (all)
            acc += c;
    }
    return acc;
}

std::vector<double>
Polynomial::tabulate(int num_vars, const std::function<void()> &poll) const
{
    constexpr std::size_t kPollStride = std::size_t{1} << 16;
    std::vector<double> table(std::size_t{1} << num_vars);
    for (std::size_t start = 0; start < table.size(); start += kPollStride) {
        if (poll)
            poll();
        const std::size_t end = std::min(table.size(), start + kPollStride);
        for (std::size_t i = start; i < end; ++i)
            table[i] = evaluate(i);
    }
    return table;
}

Polynomial
Polynomial::operator+(const Polynomial &rhs) const
{
    Polynomial out = *this;
    out += rhs;
    return out;
}

Polynomial &
Polynomial::operator+=(const Polynomial &rhs)
{
    for (const auto &[vars, c] : rhs.terms_)
        addTerm(vars, c);
    return *this;
}

Polynomial
Polynomial::operator-(const Polynomial &rhs) const
{
    Polynomial out = *this;
    for (const auto &[vars, c] : rhs.terms_)
        out.addTerm(vars, -c);
    return out;
}

Polynomial
Polynomial::operator*(const Polynomial &rhs) const
{
    Polynomial out;
    for (const auto &[va, ca] : terms_) {
        for (const auto &[vb, cb] : rhs.terms_) {
            // Merge with idempotent variables: x^2 = x.
            Monomial merged;
            merged.reserve(va.size() + vb.size());
            std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                           std::back_inserter(merged));
            out.addTerm(std::move(merged), ca * cb);
        }
    }
    return out;
}

Polynomial
Polynomial::operator*(double scalar) const
{
    Polynomial out;
    if (scalar == 0.0)
        return out;
    for (const auto &[vars, c] : terms_)
        out.terms_[vars] = c * scalar;
    return out;
}

Polynomial
Polynomial::substitute(int v, int value) const
{
    CHOCOQ_ASSERT(value == 0 || value == 1, "binary substitution only");
    Polynomial out;
    for (const auto &[vars, c] : terms_) {
        const bool has = std::binary_search(vars.begin(), vars.end(), v);
        if (!has) {
            out.addTerm(vars, c);
        } else if (value == 1) {
            Monomial rest;
            rest.reserve(vars.size() - 1);
            for (int w : vars)
                if (w != v)
                    rest.push_back(w);
            out.addTerm(std::move(rest), c);
        }
        // value == 0 with the variable present: term vanishes.
    }
    return out;
}

Polynomial
Polynomial::remapped(const std::vector<int> &new_of) const
{
    Polynomial out;
    for (const auto &[vars, c] : terms_) {
        Monomial mapped;
        mapped.reserve(vars.size());
        for (int v : vars) {
            CHOCOQ_ASSERT(v < static_cast<int>(new_of.size())
                              && new_of[v] >= 0,
                          "remap drops a used variable");
            mapped.push_back(new_of[v]);
        }
        out.addTerm(std::move(mapped), c);
    }
    return out;
}

void
Polynomial::prune(double eps)
{
    for (auto it = terms_.begin(); it != terms_.end();) {
        if (std::abs(it->second) < eps)
            it = terms_.erase(it);
        else
            ++it;
    }
}

std::string
Polynomial::str() const
{
    if (terms_.empty())
        return "0";
    std::ostringstream os;
    bool first = true;
    for (const auto &[vars, c] : terms_) {
        const double mag = std::abs(c);
        if (first) {
            if (c < 0)
                os << "-";
            first = false;
        } else {
            os << (c < 0 ? " - " : " + ");
        }
        const bool unit_coeff = std::abs(mag - 1.0) < 1e-12 && !vars.empty();
        if (!unit_coeff)
            os << mag;
        for (std::size_t i = 0; i < vars.size(); ++i) {
            if (i > 0 || !unit_coeff)
                os << "*";
            os << "x" << vars[i];
        }
    }
    return os.str();
}

} // namespace chocoq::model
