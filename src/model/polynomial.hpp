/**
 * @file
 * Multilinear polynomials over binary variables.
 *
 * Objective functions, penalty terms, and the diagonal Hamiltonians they
 * induce are all multilinear polynomials in x_i in {0,1} (x_i^2 == x_i, so
 * every monomial is a product of distinct variables). The polynomial is
 * exactly the diagonal of the objective Hamiltonian H_o obtained by the
 * substitution x_j -> (I - Z_j)/2 of the paper's Step 2, so evaluating it
 * on a basis index gives the corresponding Hamiltonian eigenvalue.
 */

#ifndef CHOCOQ_MODEL_POLYNOMIAL_HPP
#define CHOCOQ_MODEL_POLYNOMIAL_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bitops.hpp"

namespace chocoq::model
{

/**
 * Multilinear polynomial: map from a sorted set of variable indices to a
 * real coefficient. The empty set is the constant term.
 */
class Polynomial
{
  public:
    using Monomial = std::vector<int>;

    Polynomial() = default;

    /** Constant polynomial. */
    static Polynomial constant(double c);

    /** Single-variable polynomial c * x_v. */
    static Polynomial variable(int v, double c = 1.0);

    /**
     * Affine expression c0 + sum_i coeffs[i] * x_i.
     */
    static Polynomial affine(const std::vector<double> &coeffs, double c0);

    /** Add @p coeff * prod(vars); vars may be unsorted, must be distinct. */
    void addTerm(Monomial vars, double coeff);

    const std::map<Monomial, double> &terms() const { return terms_; }

    /** Number of non-zero monomials. */
    std::size_t size() const { return terms_.size(); }

    /** Highest monomial degree (0 for a constant/empty polynomial). */
    int degree() const;

    /** Largest variable index used, or -1 when none. */
    int maxVar() const;

    /** Evaluate on the assignment encoded by @p idx (bit i = x_i). */
    double evaluate(Basis idx) const;

    /** evaluate() on every basis state of @p num_vars variables: the
     * diagonal of the Hamiltonian, indexed by basis state. @p poll,
     * when set, is called before every 2^16 states and may throw to
     * abort. */
    std::vector<double>
    tabulate(int num_vars,
             const std::function<void()> &poll = nullptr) const;

    Polynomial operator+(const Polynomial &rhs) const;
    Polynomial operator-(const Polynomial &rhs) const;
    Polynomial operator*(const Polynomial &rhs) const;
    Polynomial operator*(double scalar) const;
    Polynomial &operator+=(const Polynomial &rhs);

    /**
     * Substitute x_v = value (0 or 1) and drop the variable.
     * Remaining variable indices are unchanged.
     */
    Polynomial substitute(int v, int value) const;

    /**
     * Renumber variables: old index v becomes new_of[v]. Every variable
     * used by the polynomial must map to a non-negative new index.
     */
    Polynomial remapped(const std::vector<int> &new_of) const;

    /** Drop terms with |coeff| below @p eps. */
    void prune(double eps = 1e-12);

    /** Human-readable form, e.g. "3 + 2*x0*x2 - x1". */
    std::string str() const;

  private:
    std::map<Monomial, double> terms_;
};

} // namespace chocoq::model

#endif // CHOCOQ_MODEL_POLYNOMIAL_HPP
