"""Transgression form constructions and the exact checks that certify them.

Three routes to the same degree-(2k-1) form:

  * ``tp_integral``: k times the exact unit-interval integral of the
    polarized polynomial applied to the tangential part and k-1 copies of
    the one-parameter curvature family.
  * ``tp_johnson``: the closed-form double sum with coefficients
    ``coefficient_A``, over the slot patterns of [tensor, tensor], the
    sub-curvature and the curvature, all read off one polarized evaluation.
  * ``tp_chern_euler``: the classical double sum for the Euler form on
    so(2k) over so(2k-1), read off the generator matrix entries.

``verify_transgression`` certifies d(form) = P(curvature) - P(sub-curvature)
together with horizontality and invariance along the subalgebra, which is
the exact algebraic content of "the form lives on the associated bundle".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm

from .algebra import (
    ContractError,
    Derivation,
    GradedElement,
    Monomial,
    Scalar,
    _t_map,
    integrate_unit_interval,
    permutation_sign,
    t_derivative,
)
from .invariants import InvariantPolynomial, _perfect_matchings, evaluate, pfaffian
from .lie import so_block
from .weil import UniversalSetup

__all__ = [
    "CheckResult",
    "TransgressionResult",
    "tp_integral",
    "tp_johnson",
    "tp_chern_euler",
    "check_euler_split",
    "coefficient_A",
    "coefficient_A_by_integration",
    "verify_transgression",
    "derivative_identity_check",
    "deformation_bianchi_check",
    "ad_invariance_identity_check",
    "double_factorial",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.passed

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class TransgressionResult:
    """A computed transgression form plus the checks run against it."""

    form: GradedElement
    method: str
    polynomial: InvariantPolynomial
    checks: dict = field(default_factory=dict)

    @property
    def degree(self):
        return self.form.degree()


def _check_poly_setup(setup: UniversalSetup, P: InvariantPolynomial) -> None:
    if P.algebra is not setup.algebra:
        raise ContractError("polynomial and setup use different algebras")


def _finish(form: GradedElement, method: str,
            P: InvariantPolynomial) -> TransgressionResult:
    # type invariant: t-free and homogeneous of degree 2k-1 (zero allowed)
    if not form.t_free:
        raise ContractError(f"{method} form still depends on t")
    if not form.is_zero and form.degree() != 2 * P.degree - 1:
        raise ContractError(f"{method} form has degree {form.degree()}, "
                            f"expected {2 * P.degree - 1}")
    return TransgressionResult(form, method, P)


def tp_integral(setup: UniversalSetup, P: InvariantPolynomial) -> TransgressionResult:
    """k * integral over [0,1] of P(tensor part, family, ..., family)."""
    _check_poly_setup(setup, P)
    integrand = setup.transgression_integrand(P)
    form = integrate_unit_interval(integrand).scale(Scalar(P.degree))
    return _finish(form, "integral", P)


def coefficient_A(k: int, i: int, j: int) -> Scalar:
    """Closed-form coefficient of the slot pattern (i, j) at degree k:
    (-1)^i k! (k-j-1)! (i+j)! / (2^i i! j! (k-i-j-1)! (k+i)!)."""
    if i < 0 or j < 0 or i + j > k - 1:
        raise ContractError(f"indices ({i}, {j}) out of range for degree {k}")
    num = factorial(k) * factorial(k - j - 1) * factorial(i + j)
    den = (2 ** i) * factorial(i) * factorial(j) * factorial(k - i - j - 1) \
        * factorial(k + i)
    return Scalar(Fraction((-1) ** i * num, den))


def coefficient_A_by_integration(k: int, i: int, j: int) -> Scalar:
    """The same coefficient derived the long way, kept independent of the
    closed form as a cross-check: k times the multinomial weight of the
    pattern times (-1/2)^i times the integral over [0, 1] of
    t^(k-j-1) (1-t)^(i+j), expanded binomially and integrated termwise.
    The sum over r of (-1)^r C(m, r) / (b+r+1) is taken over the lcm L of
    its denominators, in integers, with one Fraction at the end."""
    if i < 0 or j < 0 or i + j > k - 1:
        raise ContractError(f"indices ({i}, {j}) out of range for degree {k}")
    multinomial = factorial(k - 1) // (factorial(i) * factorial(j) * factorial(k - i - j - 1))
    m, b = i + j, k - j - 1
    L = lcm(*range(b + 1, b + m + 2))
    integral = sum((-1) ** r * comb(m, r) * (L // (b + r + 1)) for r in range(m + 1))
    return Scalar(Fraction((-1) ** i * k * multinomial * integral, 2 ** i * L))


def tp_johnson(setup: UniversalSetup, P: InvariantPolynomial,
               coefficient_fn=None) -> TransgressionResult:
    """The explicit double sum: sum over (i, j) of
    A_ij P(tensor, [tensor,tensor]^i, sub-curv^j, curv^(k-i-j-1)).

    All terms come from one polarized evaluation.  With
    Y = t [tensor,tensor] + t^k sub-curv + curv, P is symmetric and
    multilinear, so P(tensor, Y, ..., Y) holds the pattern (i, j) at
    t-degree i + k j (as i < k), times multinomial(k-1; i, j, k-1-i-j).
    Each t-degree is weighted by A_ij over that multinomial, a Scalar that
    ``_t_map`` multiplies in as t is dropped.
    ``coefficient_fn`` is asked only for the patterns with a nonzero term,
    in the order of (i, j).
    """
    _check_poly_setup(setup, P)
    if coefficient_fn is None:
        coefficient_fn = coefficient_A
    k = P.degree
    generating = (setup.tensor_bracket.times_t(1) + setup.sub_curvature.times_t(k)
                  + setup.curvature)
    polarized = evaluate(P, [setup.tensor_form] + [generating] * (k - 1))
    weights = {}  # t-degree d = i + k j -> (0, A_ij over the multinomial)
    tshift = polarized._layout.tshift
    for d in sorted({key >> tshift for key in polarized._nums}, key=lambda d: (d % k, d // k)):
        i, j = d % k, d // k
        multinomial = factorial(k - 1) // (
            factorial(i) * factorial(j) * factorial(k - 1 - i - j))
        weights[d] = 0, Scalar._coerce(coefficient_fn(k, i, j)) / multinomial
    return _finish(_t_map(polarized, weights), "johnson", P)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def tp_chern_euler(setup: UniversalSetup, P: InvariantPolynomial = None) -> TransgressionResult:
    """The classical Euler-form transgression on so(2k) over so(2k-1):

        (2pi)^-k  sum_j  (-1)^(j+1) / (2^j j! (2k-2j-1)!!)
                  sum_alpha eps(alpha)
                  W_{a1 a2} ... W_{a_{2j-1} a_{2j}}
                  w_{a_{2j+1} n} ... w_{a_{n-1} n}

    with alpha running over permutations of the first n-1 coordinates and
    the matrix entries read off the generator components.

    The permutations are collected by the 2j points they pair up and the
    matching of those points.  With the pairs ascending and the other points
    in ascending order, the permutation ``pairs + complement`` has the sign
    of the matching times the shuffle sign of ``subset + complement``.  The
    2^j j! (2k-2j-1)! permutations that reorder the pairs, flip a pair or
    reorder the complement all give this same signed monomial, so the
    weight of each (subset, matching) is the integer
    (-1)^(j+1) (2^j j! (2k-2j-1)!) / (2^j j! (2k-2j-1)!!) = (-1)^(j+1) (2k-2j-2)!!.
    """
    algebra = setup.algebra
    n = check_euler_split(algebra, setup.split)
    k = n // 2
    pair_index = {pair: idx for idx, pair in enumerate(algebra.meta["pairs"])}
    dim = algebra.dim
    last = n - 1
    terms = {}
    for j in range(k):
        # Classical alternating sign (-1)^(j+1), with one extra flip per
        # paired connection factor: in this engine's wedge convention the
        # half-bracket block entry is minus the product of the two
        # connection entries, and the j-term carries k-j-1 such pairs.
        weight = ((-1) ** (j + 1) * (-1) ** (k - j - 1)
                  * double_factorial(2 * k - 2 * j - 2))
        for subset in itertools.combinations(range(last), 2 * j):
            complement = tuple(p for p in range(last) if p not in subset)
            shuffle = permutation_sign(subset + complement)
            odd = sum(1 << pair_index[(p, last)] for p in complement)
            # distinct (subset, matching) give distinct monomials
            for matched, sign in _perfect_matchings(subset):
                even = tuple(sorted(dim + pair_index[p] for p in matched))
                terms[Monomial(odd, even, 0)] = Scalar(weight * shuffle * sign)
    form = GradedElement(setup.context, terms).scale(Scalar(1, two_pi=k))
    return _finish(form, "chern", P or pfaffian(algebra))


def check_euler_split(algebra, split) -> int:
    """The one rule of the Euler route: n when ``algebra`` is the built-in
    so(n) with n even and ``split`` its standard so(n-1) block, and a
    ContractError otherwise."""
    if algebra.meta.get("family") != "so":
        raise ContractError("the Euler transgression needs a built-in so(n)")
    n = algebra.meta["n"]
    if n % 2:
        raise ContractError("the Euler transgression needs even n")
    if split.h != so_block(n, n - 1):
        raise ContractError("the splitting must be the standard so(n-1) block")
    return n


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _zero_check(name: str, element) -> CheckResult:
    return CheckResult(name, element.is_zero,
                       "" if element.is_zero else element.leading_term_str())


def verify_transgression(result: TransgressionResult, setup: UniversalSetup,
                         P: InvariantPolynomial = None) -> dict:
    """d(form) = P(curvature) - P(sub-curvature), plus basic-ness along h.

    d(form) is ``setup.d_basic(form)`` where that applies, else the full d.
    Basic-ness is read off the h-connection bits of the form and of d(form)
    (``setup.h_bits``), as iota_x, the partial derivative in w[x], is
    nonzero on y exactly when y has bit x.  Horizontality fails at the
    first x in h whose bit the form has.  Invariance is Cartan's formula on
    the d(form) already computed, L_x = iota_x(d form) + d(iota_x form),
    formed only at the x whose bit one of them has; d(iota_x form) only
    where the form has it.

    Returns {name: CheckResult} and stores it on the result.  A failing check
    carries a nonzero witness term.
    """
    P = P or result.polynomial
    _check_poly_setup(setup, P)
    form, ctx = result.form, setup.context
    rhs = setup.curvature_difference(P)
    lhs = setup.d_basic(form)
    if lhs is None:
        lhs = setup.d(form)
    checks = {"transgression": _zero_check("transgression", lhs - rhs)}

    def iota(x, y):
        return Derivation(ctx, {x: ctx.one()}, -1)(y)

    bits = setup.h_bits(form)
    x = next((x for x in setup.split.h if bits >> x & 1), None)
    checks["horizontality"] = CheckResult("horizontality", x is None, "" if x is None else
                                          f"iota[{x}] -> {iota(x, form).leading_term_str()}")

    invariant = CheckResult("invariance", True)
    moved_bits = bits | setup.h_bits(lhs)
    for x in (x for x in setup.split.h if moved_bits >> x & 1):
        moved = iota(x, lhs)
        if bits >> x & 1:
            moved = setup.d(iota(x, form)) + moved
        if not moved.is_zero:
            invariant = CheckResult(
                "invariance", False,
                witness=f"L[{x}] -> {moved.leading_term_str()}")
            break
    checks["invariance"] = invariant

    result.checks.update(checks)
    return checks


def derivative_identity_check(setup: UniversalSetup,
                              P: InvariantPolynomial) -> CheckResult:
    """d/dt P(family, ..., family) = k d P(tensor, family, ..., family),
    exactly as polynomials in t.  The integrand is h-basic when P is
    ad-invariant, and then ``setup.d_basic`` gives its d; the full d runs
    otherwise."""
    _check_poly_setup(setup, P)
    k = P.degree
    family = setup.deformed_curvature
    # the derivation first, while no other large form is alive
    integrand = setup.transgression_integrand(P)
    rhs = setup.d_basic(integrand)
    if rhs is None:
        rhs = setup.d(integrand)
    rhs = rhs.scale(Scalar(k))
    lhs = t_derivative(evaluate(P, [family] * k))
    return _zero_check("derivative-identity", lhs - rhs)


def deformation_bianchi_check(setup: UniversalSetup) -> CheckResult:
    """Covariant derivative of the family equals t [family, tensor part]."""
    witness = setup.bianchi_deformation_witness()
    return CheckResult("deformation-bianchi", witness is None,
                       "" if witness is None else f"component {witness[0]}: {witness[1]}")


def ad_invariance_identity_check(setup: UniversalSetup,
                                 P: InvariantPolynomial) -> CheckResult:
    """P([x,x], F, ...) + (k-1) P(x, [F,x], F, ...) = 0 for the tensor part
    x and the curvature family F: the polarized form of ad-invariance."""
    _check_poly_setup(setup, P)
    k = P.degree
    family = setup.deformed_curvature
    x = setup.tensor_form
    total = evaluate(P, [setup.tensor_bracket] + [family] * (k - 1))
    if k >= 2:
        second = evaluate(P, [x, setup.family_tensor_bracket] + [family] * (k - 2))
        total = total + second.scale(Scalar(k - 1))
    return _zero_check("ad-invariance-identity", total)
