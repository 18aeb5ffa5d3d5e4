import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coefficient_A_by_scalars,
    from_word,
    jacobi_broken_so4,
    literal_basicness,
    random_homogeneous,
    tp_chern_euler_by_permutations,
    tp_johnson_by_slots,
    unclosed_so4,
    without_factors,
)
from transgress.algebra import ContractError, Scalar
from transgress.invariants import (
    InvariantPolynomial,
    evaluate,
    pfaffian,
    symmetrized_trace,
)
from transgress.lie import (
    ReductiveSplit,
    abelian_algebra,
    named_algebra,
    named_split,
    so_algebra,
    so_subalgebra_split,
    trivial_split,
    u_algebra,
)
from transgress.transgression import (
    ad_invariance_identity_check,
    coefficient_A,
    coefficient_A_by_integration,
    deformation_bianchi_check,
    derivative_identity_check,
    double_factorial,
    tp_chern_euler,
    tp_integral,
    TransgressionResult,
    tp_johnson,
    verify_transgression,
)
from transgress.weil import UniversalSetup


class TestCoefficients:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_a00_is_one(self, k):
        assert coefficient_A(k, 0, 0) == Scalar(1)
        assert coefficient_A_by_integration(k, 0, 0) == Scalar(1)

    def test_k2_values(self):
        assert coefficient_A(2, 0, 1) == Scalar(1)
        assert coefficient_A(2, 1, 0) == Scalar(Fraction(-1, 6))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_closed_form_matches_exact_integration(self, k):
        for i in range(k):
            for j in range(k - i):
                assert coefficient_A(k, i, j) == \
                    coefficient_A_by_integration(k, i, j), (k, i, j)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_integer_integration_matches_scalar_one(self, k):
        for i in range(k):
            for j in range(k - i):
                assert coefficient_A_by_integration(k, i, j) == \
                    coefficient_A_by_scalars(k, i, j), (k, i, j)

    def test_closed_form_matches_integration_up_to_k40(self):
        for k in range(1, 41):
            for i in range(k):
                for j in range(k - i):
                    assert coefficient_A(k, i, j) == \
                        coefficient_A_by_integration(k, i, j), (k, i, j)

    def test_out_of_range_rejected(self):
        for bad in [(2, -1, 0), (2, 0, -1), (2, 1, 1), (1, 1, 0)]:
            with pytest.raises(ContractError):
                coefficient_A(*bad)
            with pytest.raises(ContractError):
                coefficient_A_by_integration(*bad)
            with pytest.raises(ContractError):
                coefficient_A_by_scalars(*bad)

    def test_double_factorial(self):
        assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 5, 6)] == \
            [1, 1, 1, 2, 3, 15, 48]


class TestIntegralRoute:
    def test_abelian_linear_case(self):
        # k = 1 coordinate functional on the complement: TP = P(tensor part)
        algebra = abelian_algebra(2)
        setup = UniversalSetup(algebra, ReductiveSplit.from_h(2, (0,)))
        P = InvariantPolynomial(algebra, 1, {(1,): Scalar(1)})
        result = tp_integral(setup, P)
        assert result.form == setup.tensor_form.components[1]
        checks = verify_transgression(result, setup)
        assert all(c.passed for c in checks.values()), checks

    def test_so4_pfaffian_d_tp_equals_p_omega(self, so4_setup, pf_so4):
        result = tp_integral(so4_setup, pf_so4)
        assert result.form.degree() == 3
        assert all(m.t_deg == 0 for m in result.form.terms)
        # sub-curvature term vanishes for the Pfaffian here, so
        # d(TP) equals the evaluated polynomial on the curvature alone
        d_tp = so4_setup.d(result.form)
        p_omega = evaluate(pf_so4, [so4_setup.curvature] * 2)
        assert d_tp == p_omega

    def test_gl3_trace_square(self, gl3_setup, tr2_gl3):
        result = tp_integral(gl3_setup, tr2_gl3)
        checks = verify_transgression(result, gl3_setup)
        assert checks["transgression"].passed
        d_tp = gl3_setup.d(result.form)
        p_om = evaluate(tr2_gl3, [gl3_setup.curvature] * 2)
        p_psi = evaluate(tr2_gl3, [gl3_setup.sub_curvature] * 2)
        assert d_tp == p_om - p_psi
        assert not p_psi.is_zero  # the sub-curvature term genuinely matters

    def test_su2_trace_square(self, su2_setup, tr2_su2):
        result = tp_integral(su2_setup, tr2_su2)
        checks = verify_transgression(result, su2_setup)
        assert all(c.passed for c in checks.values()), checks

    def test_degree_bookkeeping(self, so4_setup, pf_so4):
        result = tp_integral(so4_setup, pf_so4)
        k = pf_so4.degree
        assert result.form.degree() == 2 * k - 1
        p_omega = evaluate(pf_so4, [so4_setup.curvature] * k)
        assert p_omega.degree() == 2 * k


class TestJohnsonRoute:
    def test_k1_reduces_to_single_term(self):
        algebra = abelian_algebra(2)
        setup = UniversalSetup(algebra, ReductiveSplit.from_h(2, (0,)))
        P = InvariantPolynomial(algebra, 1, {(1,): Scalar(1)})
        assert tp_johnson(setup, P).form == evaluate(P, [setup.tensor_form])

    @pytest.mark.parametrize("config", ["so4-pf", "su2-tr2", "gl3-tr2", "gl3-tr3"])
    def test_equals_integral_route(self, config, so4_setup, su2_setup,
                                   gl3_setup, pf_so4, tr2_su2, tr2_gl3, tr3_gl3):
        setup, P = {
            "so4-pf": (so4_setup, pf_so4),
            "su2-tr2": (su2_setup, tr2_su2),
            "gl3-tr2": (gl3_setup, tr2_gl3),
            "gl3-tr3": (gl3_setup, tr3_gl3),
        }[config]
        a = tp_integral(setup, P)
        b = tp_johnson(setup, P)
        assert a.form == b.form

    def test_chern_simons_limit(self, so3_cs_setup):
        # empty subalgebra: sub-curvature is zero, only the j = 0 column
        # survives, and the result is the classical one-bundle transgression
        setup = so3_cs_setup
        assert setup.sub_curvature.is_zero
        P = symmetrized_trace(setup.algebra, 2)
        a = tp_integral(setup, P)
        b = tp_johnson(setup, P)
        assert a.form == b.form
        for j in range(1, P.degree):
            with_j = evaluate(
                P, [setup.tensor_form, setup.sub_curvature])
            assert with_j.is_zero
        checks = verify_transgression(a, setup)
        assert all(c.passed for c in checks.values())
        # d TP = P(curvature) on the nose
        assert setup.d(a.form) == evaluate(P, [setup.curvature] * 2)

    def test_corrupted_coefficient_fails_d_check(self, so4_setup, pf_so4):
        def corrupted(k, i, j):
            base = coefficient_A(k, i, j)
            if (i, j) == (1, 0):
                return base + Scalar(1)
            return base

        result = tp_johnson(so4_setup, pf_so4, coefficient_fn=corrupted)
        checks = verify_transgression(result, so4_setup)
        assert not checks["transgression"].passed
        assert checks["transgression"].witness  # a nonzero term is reported


@cache
def johnson_setup(algebra, sub):
    algebra = named_algebra(algebra)
    return UniversalSetup(algebra, named_split(algebra, sub))


@cache
def johnson_polynomial(algebra, sub, poly):
    algebra = johnson_setup(algebra, sub).algebra
    if poly == "pfaffian":
        return pfaffian(algebra)
    return symmetrized_trace(algebra, int(poly[len("trace^"):]))


JOHNSON_CONFIGS = (
    [(f"so{n}", f"so{n - 1}", "pfaffian") for n in (4, 6, 8, 10)]
    + [("gl3", "gl2", f"trace^{k}") for k in (1, 2, 3, 4)]
    + [("gl4", "gl3", f"trace^{k}") for k in (2, 3)]
    + [("su2", "u1", f"trace^{k}") for k in (2, 4)]
    + [("u3", "0,1,2", f"trace^{k}") for k in (3, 4)])

johnson_values = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-2, 2))


@st.composite
def johnson_tensors(draw, values, powers=st.just(0)):
    """A sparse tensor of degree 1 to 3 on a small split algebra, its values
    and its prefactor each at one drawn (2pi) power."""
    setup = johnson_setup(*draw(st.sampled_from(
        [("su2", "u1"), ("so4", "so3"), ("u2", "0,1"), ("gl2", "gl1")])))
    dim = setup.algebra.dim
    k = draw(st.integers(1, 3))
    keys = st.lists(st.integers(0, dim - 1), min_size=k, max_size=k)
    power = draw(powers)
    entries = [(key, Scalar(v.re, v.im, power))
               for key, v in draw(st.lists(st.tuples(keys, values), min_size=1, max_size=8))]
    prefactor = draw(values) * Scalar(1, two_pi=draw(powers))
    P = InvariantPolynomial(setup.algebra, k,
                            {tuple(sorted(key)): v for key, v in entries}, prefactor)
    return setup, P


def assert_johnson_matches_slots(setup, P):
    try:
        want = tp_johnson_by_slots(setup, P)
    except ContractError:
        with pytest.raises(ContractError):
            tp_johnson(setup, P)
        return
    assert tp_johnson(setup, P).form == want.form


class TestJohnsonOneWalk:
    """The one polarized evaluation against one evaluation per slot pattern
    (``helpers.tp_johnson_by_slots``): the same form, the same errors, and
    the same coefficients asked for."""

    @pytest.mark.parametrize("config", JOHNSON_CONFIGS, ids="/".join)
    def test_pinned_configs(self, config):
        setup, P = johnson_setup(*config[:2]), johnson_polynomial(*config)
        got = tp_johnson(setup, P)
        assert not got.form.is_zero
        assert got.form == tp_johnson_by_slots(setup, P).form

    @given(johnson_tensors(johnson_values))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_tensors(self, case):
        assert_johnson_matches_slots(*case)

    @given(johnson_tensors(johnson_values, st.integers(0, 2)))
    @settings(max_examples=60, deadline=None)
    def test_mixed_power_tensors(self, case):
        assert_johnson_matches_slots(*case)

    @pytest.mark.parametrize("config", [
        ("so6", "so5", "pfaffian"), ("gl3", "gl2", "trace^3"),
        ("u3", "0,1,2", "trace^4"), ("su2", "u1", "trace^2"),
    ], ids="/".join)
    @pytest.mark.parametrize("bump", [Scalar(1), Scalar(0, 1), Scalar(1, two_pi=1)],
                             ids=["real", "imaginary", "powered"])
    def test_corrupted_coefficient_fn(self, config, bump):
        # every nonzero pattern in turn gets a bumped coefficient; both routes
        # ask for the same patterns in the same order and agree on the form
        setup, P = johnson_setup(*config[:2]), johnson_polynomial(*config)
        patterns = []
        tp_johnson_by_slots(setup, P, lambda k, i, j: patterns.append((i, j)) or 1)
        assert patterns
        for target in patterns:
            asked = {"slots": [], "walk": []}

            def corrupted(k, i, j, route):
                asked[route].append((i, j))
                base = coefficient_A(k, i, j)
                return base + bump if (i, j) == target else base

            try:
                want = tp_johnson_by_slots(
                    setup, P, lambda k, i, j: corrupted(k, i, j, "slots")).form
            except ContractError:  # a powered bump next to unpowered terms
                with pytest.raises(ContractError):
                    tp_johnson(setup, P, lambda k, i, j: corrupted(k, i, j, "walk"))
                continue
            got = tp_johnson(setup, P, lambda k, i, j: corrupted(k, i, j, "walk")).form
            assert asked["walk"] == asked["slots"] == patterns
            assert got == want
            assert got != tp_johnson(setup, P).form

    def test_zero_coefficients(self, so4_setup, pf_so4):
        assert tp_johnson(so4_setup, pf_so4, lambda k, i, j: 0).form.is_zero


class TestChernEulerRoute:
    def test_n2_matches_integral(self):
        algebra = so_algebra(2)
        setup = UniversalSetup(algebra, trivial_split(algebra))
        P = pfaffian(algebra)
        a = tp_integral(setup, P)
        b = tp_chern_euler(setup, P)
        assert a.form == b.form
        # explicit value: -(2pi)^-1 w[0]
        assert a.form == setup.context.gen(0).scale(Scalar(-1, two_pi=1))

    def test_n4_matches_integral(self, so4_setup, pf_so4):
        a = tp_integral(so4_setup, pf_so4)
        b = tp_chern_euler(so4_setup, pf_so4)
        assert a.form == b.form

    def test_n6_matches_integral(self, so6_setup, pf_so6):
        a = tp_integral(so6_setup, pf_so6)
        b = tp_chern_euler(so6_setup, pf_so6)
        assert a.form == b.form

    def test_n8_all_routes_agree_and_certify(self):
        # one size past the bundled cases; k = 4 exercises the even-k
        # branch of the alternating weights at scale
        algebra = so_algebra(8)
        from transgress.lie import so_subalgebra_split

        setup = UniversalSetup(algebra, so_subalgebra_split(algebra, 7))
        P = pfaffian(algebra)
        a = tp_integral(setup, P)
        assert tp_johnson(setup, P).form == a.form
        assert tp_chern_euler(setup, P).form == a.form
        checks = verify_transgression(a, setup)
        assert all(c.passed for c in checks.values())

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_permutation_sum(self, n):
        algebra = so_algebra(n)
        setup = UniversalSetup(algebra, so_subalgebra_split(algebra, n - 1))
        got = tp_chern_euler(setup).form
        want = tp_chern_euler_by_permutations(setup).form
        assert got.sorted_terms() == want.sorted_terms()

    def test_n10_matches_integral(self):
        algebra = so_algebra(10)
        setup = UniversalSetup(algebra, so_subalgebra_split(algebra, 9))
        P = pfaffian(algebra)
        chern = tp_chern_euler(setup, P).form
        assert chern.term_count == 2620
        assert chern == tp_integral(setup, P).form

    def test_rejects_wrong_shape(self, so4_setup, gl3_setup):
        algebra = so_algebra(4)
        with pytest.raises(ContractError):
            tp_chern_euler(UniversalSetup(algebra, trivial_split(algebra)))
        with pytest.raises(ContractError):
            tp_chern_euler(gl3_setup)
        algebra5 = so_algebra(5)
        from transgress.lie import so_subalgebra_split

        with pytest.raises(ContractError):
            tp_chern_euler(
                UniversalSetup(algebra5, so_subalgebra_split(algebra5, 4)))


class TestProofIdentities:
    def test_derivative_identity_so4(self, so4_setup, pf_so4):
        assert derivative_identity_check(so4_setup, pf_so4).passed

    def test_derivative_identity_abelian(self):
        algebra = abelian_algebra(2)
        setup = UniversalSetup(algebra, ReductiveSplit.from_h(2, (0,)))
        P = InvariantPolynomial(
            algebra, 2, {(0, 1): Scalar(Fraction(1, 2)), (1, 1): Scalar(1)})
        assert derivative_identity_check(setup, P).passed

    def test_derivative_identity_gl3(self, gl3_setup, tr2_gl3):
        assert derivative_identity_check(gl3_setup, tr2_gl3).passed

    def test_bianchi_family(self, so4_setup):
        assert deformation_bianchi_check(so4_setup).passed

    def test_ad_invariance_identity(self, so4_setup, pf_so4, su2_setup, tr2_su2):
        assert ad_invariance_identity_check(so4_setup, pf_so4).passed
        assert ad_invariance_identity_check(su2_setup, tr2_su2).passed


class TestBasicness:
    @pytest.mark.parametrize("method", ["integral", "johnson", "chern"])
    def test_so4_forms_are_basic(self, method, so4_setup, pf_so4):
        result = {
            "integral": tp_integral,
            "johnson": tp_johnson,
            "chern": tp_chern_euler,
        }[method](so4_setup, pf_so4)
        checks = verify_transgression(result, so4_setup)
        assert checks["horizontality"].passed
        assert checks["invariance"].passed
        assert result.checks == checks


@pytest.fixture(scope="module")
def u2_setup():
    algebra = u_algebra(2)
    return UniversalSetup(algebra, named_split(algebra, "0,1"))


class TestNonBasicForms:
    """verify_transgression reads basic-ness off the h-connection bits of TP
    and of the d(TP) it has already computed; its verdicts and witnesses
    must be those of the literal interior-product and Lie-derivative loops,
    also on forms that are not basic, and on tables where ``d_basic``
    refuses: one that fails the Jacobi identity, and an h that is not
    closed under the bracket."""

    @staticmethod
    def perturbed(setup, P, extra):
        # the extra term carries TP's (2pi) unit, so the sum is well formed;
        # TP is horizontal where h is closed under the bracket, and where it
        # is not, its terms with an h-connection factor are dropped, so that
        # the extra term alone decides horizontality
        unit = Scalar(1, two_pi=P.prefactor.two_pi)
        tp = without_factors(tp_integral(setup, P).form, setup.split.h)
        return TransgressionResult(tp + extra.scale(unit), "integral", P)

    @staticmethod
    def basicness(checks):
        return [(c.name, c.passed, c.witness)
                for c in (checks["horizontality"], checks["invariance"])]

    @pytest.fixture(params=["so4/so3", "u2/u1+u1", "jacobi-broken", "unclosed-h"])
    def case(self, request, so4_setup, pf_so4, u2_setup):
        if request.param == "so4/so3":
            return so4_setup, pf_so4
        if request.param == "jacobi-broken":
            return jacobi_broken_so4()[:2]
        if request.param == "unclosed-h":
            return unclosed_so4()[:2]
        return u2_setup, symmetrized_trace(u2_setup.algebra, 2)

    def test_not_horizontal(self, case):
        setup, P = case
        h0, p0 = setup.split.h[0], setup.split.p[0]
        dim = setup.algebra.dim
        extra = from_word(setup.context, [h0, dim + p0])   # w[h0] W[p0]
        result = self.perturbed(setup, P, extra)
        checks = verify_transgression(result, setup)
        assert not checks["horizontality"].passed
        assert self.basicness(checks) == literal_basicness(setup, result.form)

    def test_horizontal_but_not_invariant(self, case):
        setup, P = case
        p0, p1 = setup.split.p[:2]
        dim = setup.algebra.dim
        extra = from_word(setup.context, [p0, dim + p1])   # w[p0] W[p1]
        result = self.perturbed(setup, P, extra)
        checks = verify_transgression(result, setup)
        assert checks["horizontality"].passed
        assert not checks["invariance"].passed
        assert self.basicness(checks) == literal_basicness(setup, result.form)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_perturbations(self, case, seed):
        setup, P = case
        rng = random.Random(seed)
        extra = random_homogeneous(
            setup.context, rng, 2 * P.degree - 1, terms=rng.randint(1, 3))
        result = self.perturbed(setup, P, extra)
        checks = verify_transgression(result, setup)
        assert self.basicness(checks) == literal_basicness(setup, result.form)
