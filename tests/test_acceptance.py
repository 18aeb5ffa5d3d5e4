"""Acceptance suite: every criterion is an exact identity (no tolerances).

Each test prints one [PASS] line once its assertions hold; a failure surfaces
through pytest with the offending configuration in the assertion message.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import (
    apply_to_coordinates,
    covariant_d_tensor,
    deformed_curvature_expanded,
    deformed_curvature_interpolated,
    interior,
    lie_derivative,
    make_matrix,
    pfaffian_permutation_sum,
    skew_coordinates,
)
from transgress.algebra import Scalar, ZERO, ONE, substitute_t
from transgress.invariants import evaluate, pfaffian
from transgress.lie import (
    LieAlgebra,
    abelian_algebra,
    gl_algebra,
    so_algebra,
    su2_algebra,
    validate,
)
from transgress.transgression import (
    ad_invariance_identity_check,
    coefficient_A,
    coefficient_A_by_integration,
    deformation_bianchi_check,
    derivative_identity_check,
    tp_chern_euler,
    tp_integral,
    tp_johnson,
    verify_transgression,
)
from transgress.weil import UniversalSetup


def _report(number, text):
    print(f"[PASS] acceptance {number}: {text}")


@pytest.fixture(scope="module")
def main_configs(so4_setup, so6_setup, gl3_setup, su2_setup,
                    pf_so4, pf_so6, tr2_gl3, tr3_gl3, tr2_su2):
    return [
        ("so4/so3 pfaffian", so4_setup, pf_so4),
        ("so6/so5 pfaffian", so6_setup, pf_so6),
        ("gl3/gl2 trace^2", gl3_setup, tr2_gl3),
        ("gl3/gl2 trace^3", gl3_setup, tr3_gl3),
        ("su2/u1 trace^2", su2_setup, tr2_su2),
    ]


@pytest.fixture(scope="module")
def integral_results(main_configs):
    return {name: tp_integral(setup, P) for name, setup, P in main_configs}


def test_01_weil_model_soundness():
    algebras = [so_algebra(3), so_algebra(4), so_algebra(5), so_algebra(6),
                su2_algebra(), gl_algebra(2), gl_algebra(3), abelian_algebra(3)]
    start = time.perf_counter()
    rng = random.Random(20240401)
    for algebra in algebras:
        setup = UniversalSetup(algebra)
        d = setup.d
        ctx = setup.context
        for _ in range(200):
            x = ctx.random_element(rng, terms=3, max_odd=3, max_even=1, max_t=1)
            residue = d(d(x))
            assert residue.is_zero, (algebra.name, residue.leading_term_str())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"soundness sweep took {elapsed:.1f}s"
    _report(1, f"d.d = 0 on 200 random elements x 8 algebras "
               f"({elapsed:.2f}s)")


def test_02_curvature_decomposition(shipped_setups):
    from transgress.algebra import HALF

    for name, setup in shipped_setups.items():
        lhs = setup.curvature
        rhs = (setup.sub_curvature + covariant_d_tensor(setup)
               + setup.tensor_bracket.scale(HALF))
        assert lhs == rhs, name
        back = (setup.curvature - setup.sub_curvature
                - setup.tensor_bracket.scale(HALF))
        assert covariant_d_tensor(setup) == back, name
    _report(2, f"decomposition and write-back exact on "
               f"{len(shipped_setups)} shipped (algebra, split) pairs")


def test_03_deformation_family(shipped_setups):
    from transgress.lie import LieValuedForm

    def at(form, value):
        return LieValuedForm(
            form.algebra, form.ctx,
            tuple(substitute_t(c, value) for c in form.components), form.degree)

    for name, setup in shipped_setups.items():
        expanded = deformed_curvature_expanded(setup)
        interpolated = deformed_curvature_interpolated(setup)
        assert expanded == interpolated, name
        assert expanded == setup.deformed_curvature, name
        assert at(expanded, ONE) == setup.curvature, name
        assert at(expanded, ZERO) == setup.sub_curvature, name
    _report(3, "both family constructions agree; endpoints recover "
               "curvature and sub-curvature")


def test_04_transgression_identity(main_configs, integral_results):
    timings = {}
    for name, setup, P in main_configs:
        start = time.perf_counter()
        result = tp_integral(setup, P)
        k = P.degree
        lhs = setup.d(result.form)
        rhs = (evaluate(P, [setup.curvature] * k)
               - evaluate(P, [setup.sub_curvature] * k))
        timings[name] = time.perf_counter() - start
        assert lhs == rhs, name
        assert result.form == integral_results[name].form, name
        assert all(m.t_deg == 0 for m in result.form.terms), name
        assert result.form.degree() == 2 * k - 1, name
    assert timings["so6/so5 pfaffian"] < 120.0
    worst = max(timings.values())
    _report(4, f"d(TP) = P(curvature) - P(sub-curvature) on 5 configurations "
               f"(slowest {worst:.2f}s)")


def test_05_basicness(main_configs, integral_results):
    for name, setup, P in main_configs:
        form = integral_results[name].form
        for x in setup.split.h:
            contracted = interior(setup, x)(form)
            assert contracted.is_zero, (name, x)
            moved = lie_derivative(setup, x)(form)
            assert moved.is_zero, (name, x)
    _report(5, "interior products and Lie derivatives along the subalgebra "
               "kill every TP")


def test_06_johnson_formula(main_configs, integral_results):
    for name, setup, P in main_configs:
        explicit = tp_johnson(setup, P)
        assert explicit.form == integral_results[name].form, name
    for k in range(1, 7):
        for i in range(k):
            for j in range(k - i):
                assert coefficient_A(k, i, j) == \
                    coefficient_A_by_integration(k, i, j), (k, i, j)
    _report(6, "explicit double-sum equals the integral route; coefficients "
               "match exact beta integration for k <= 6")


def test_07_chern_euler_formula(so4_setup, so6_setup, pf_so4, pf_so6,
                                integral_results):
    for n, setup, P, key in ((4, so4_setup, pf_so4, "so4/so3 pfaffian"),
                             (6, so6_setup, pf_so6, "so6/so5 pfaffian")):
        classical = tp_chern_euler(setup, P)
        assert classical.form == integral_results[key].form, n
        k = P.degree
        vanishing = evaluate(P, [setup.sub_curvature] * k)
        assert vanishing.is_zero, n
        d_tp = setup.d(classical.form)
        assert d_tp == evaluate(P, [setup.curvature] * k), n
    _report(7, "classical Euler double-sum equals the integral route for "
               "n = 4, 6; the sub-curvature term vanishes identically")


def test_08_proof_identity_suite(main_configs):
    for name, setup, P in main_configs:
        assert derivative_identity_check(setup, P).passed, name
        assert deformation_bianchi_check(setup).passed, name
        assert ad_invariance_identity_check(setup, P).passed, name
    _report(8, "t-derivative identity, family Bianchi identity, and the "
               "polarized ad-invariance identity hold exactly")


def test_09_oracles():
    # Pfaffian values against the brute-force permutation sum
    rng = random.Random(77)
    for n in (2, 4):
        algebra = so_algebra(n)
        P = pfaffian(algebra)
        for _ in range(20):
            rows = [[Scalar(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    rows[i][j] = v
                    rows[j][i] = -v
            matrix = make_matrix(rows)
            assert apply_to_coordinates(P, skew_coordinates(algebra, matrix)) \
                == pfaffian_permutation_sum(matrix)

    # odd-sign bookkeeping against an adjacent-transposition oracle
    from helpers import from_word, perm_sign_by_swaps, sort_word_with_sign
    from transgress.algebra import Context, Generator

    ctx = Context([Generator(i, 1, f"x{i}") for i in range(8)])
    for _ in range(200):
        word = [rng.randrange(8) for _ in range(rng.randint(0, 6))]
        sign, sorted_word = sort_word_with_sign(word)
        if len(set(word)) != len(word):
            assert sign == 0
            assert from_word(ctx, word).is_zero
            continue
        assert sign == perm_sign_by_swaps(word)
        elem = from_word(ctx, word)
        [(mono, coeff)] = elem.terms.items()
        assert mono.odd == tuple(sorted(word))
        assert coeff == Scalar(sign)
    _report(9, "Pfaffian permutation sums and odd-sign bookkeeping match "
               "brute-force oracles")


def test_10_sensitivity_controls(so4_setup, pf_so4):
    setup, P = so4_setup, pf_so4
    k = P.degree

    # (a) perturbing any single A_ij breaks the transgression identity
    for ci in range(k):
        for cj in range(k - ci):
            def corrupted(kk, i, j, _ci=ci, _cj=cj):
                base = coefficient_A(kk, i, j)
                return base + Scalar(1) if (i, j) == (_ci, _cj) else base

            result = tp_johnson(setup, P, coefficient_fn=corrupted)
            checks = verify_transgression(result, setup, P)
            assert not checks["transgression"].passed, (ci, cj)
            assert checks["transgression"].witness, (ci, cj)

    # (b) perturbing one structure constant is caught with a witness
    base = setup.algebra
    structure = dict(base.structure)
    key = sorted(structure)[0]
    a, b, c = key
    bumped = structure[key] + Scalar(1)
    structure[key] = bumped
    structure[(a, c, b)] = -bumped
    bad = LieAlgebra(base.dim, base.labels, structure, base.matrices,
                     meta=base.meta)
    bad_report = validate(bad)
    assert not bad_report.passed
    assert bad_report.first().indices
    bad_setup = UniversalSetup(bad, setup.split)
    witness = bad_setup.d_squared_witness()
    assert witness is not None and not witness[1].is_zero

    # (c) perturbing the Pfaffian prefactor breaks method agreement
    scaled = P.scaled(Scalar(2))
    via_integral = tp_integral(setup, scaled)
    via_classical = tp_chern_euler(setup, scaled)
    diff = via_integral.form - via_classical.form
    assert not diff.is_zero
    assert diff.leading_term_str() != "0"
    _report(10, "each single perturbation (A_ij, structure constant, "
                "prefactor) fails a check with a nonzero witness")
