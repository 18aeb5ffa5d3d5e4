"""One (2pi) power per element: every place where a second power could enter
refuses it, as adding two Scalars at different powers does."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transgress.algebra import (
    ContractError,
    Derivation,
    GradedElement,
    Monomial,
    Scalar,
    substitute_t,
)
from transgress.invariants import InvariantPolynomial, evaluate, pfaffian
from transgress.lie import LieAlgebra, LieValuedForm, bracket, so_algebra, so_subalgebra_split
from transgress.transgression import coefficient_A, tp_johnson
from transgress.weil import UniversalSetup

POWERED = Scalar(1, two_pi=1)


@cache
def so4():
    """so4 over so3 with its Pfaffian."""
    algebra = so_algebra(4)
    return UniversalSetup(algebra, so_subalgebra_split(algebra, 3)), pfaffian(algebra)


def lifted_curvature():
    """The curvature of so4 with its first component at (2pi)^-1."""
    setup, _ = so4()
    comps = list(setup.curvature.components)
    comps[0] = comps[0].scale(POWERED)
    return LieValuedForm(setup.algebra, setup.context, comps, 2)


def two_power_element():
    ctx = so4()[0].context
    GradedElement(ctx, {Monomial(1, (), 0): Scalar(1), Monomial(2, (), 0): POWERED})


def two_power_sum():
    ctx = so4()[0].context
    ctx.gen(0) + ctx.gen(1).scale(POWERED)


def two_power_derivation():
    ctx = so4()[0].context
    Derivation(ctx, {0: ctx.gen(6), 1: ctx.gen(7).scale(POWERED)}, +1)


def two_power_evaluate():
    _, P = so4()
    F = lifted_curvature()
    evaluate(P, [F, F])


def two_power_bracket():
    F = lifted_curvature()
    bracket(F, F)


def two_power_values():
    setup, P = so4()
    values = {key: v * POWERED if i % 2 else v for i, (key, v) in enumerate(P.values.items())}
    evaluate(InvariantPolynomial(setup.algebra, 2, values), [setup.curvature] * 2)


def powered_structure_constant():
    algebra = so4()[0].algebra
    structure = {key: v * POWERED if key == min(algebra.structure) else v
                 for key, v in algebra.structure.items()}
    LieAlgebra(algebra.dim, algebra.labels, structure)


def powered_matrix_entry():
    algebra = so4()[0].algebra
    mats = [[list(row) for row in M] for M in algebra.matrices]
    mats[0][0][1] = mats[0][0][1] * POWERED
    LieAlgebra(algebra.dim, algebra.labels, algebra.structure, mats)


def powered_substitution():
    ctx = so4()[0].context
    substitute_t(ctx.gen(0).times_t(1), POWERED)


def two_power_johnson_weights():
    setup, P = so4()
    tp_johnson(setup, P, lambda k, i, j: coefficient_A(k, i, j) * Scalar(1, two_pi=i))


REFUSALS = {
    "element": two_power_element,
    "sum": two_power_sum,
    "derivation": two_power_derivation,
    "evaluate": two_power_evaluate,
    "bracket": two_power_bracket,
    "tensor-values": two_power_values,
    "structure-constant": powered_structure_constant,
    "matrix-entry": powered_matrix_entry,
    "substitute-t": powered_substitution,
    "johnson-weights": two_power_johnson_weights,
}


class TestOnePowerPerElement:
    @pytest.mark.parametrize("refused", REFUSALS.values(), ids=REFUSALS.keys())
    def test_second_power_refused(self, refused):
        with pytest.raises(ContractError, match="\\(2pi\\) power"):
            refused()

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_equality_and_zero(self, p, q):
        ctx = so4()[0].context
        x = (ctx.gen(0) * ctx.gen(6)).scale(Scalar(2, two_pi=p))
        y = (ctx.gen(0) * ctx.gen(6)).scale(Scalar(2, two_pi=q))
        assert (x == y) == (p == q)
        assert x + ctx.zero() == ctx.zero() + x == x
        assert x - x == ctx.zero()
        # a zero that a kernel left at the power q adds to x as well
        D = Derivation(ctx, {0: ctx.gen(6).scale(Scalar(1, two_pi=q))}, +1)
        zero = D(ctx.gen(1))
        assert zero.is_zero and zero == ctx.zero()
        assert x + zero == zero + x == x
