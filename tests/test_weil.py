import random

import pytest

from helpers import (
    covariant_d_tensor,
    d_squared_probe_by_draw,
    d_squared_witness_by_generator,
    deformed_curvature_expanded,
    deformed_curvature_interpolated,
    interior,
    lie_derivative,
)
from transgress.algebra import Scalar, ZERO, ONE, substitute_t
from transgress.lie import (
    LieValuedForm,
    ReductiveSplit,
    abelian_algebra,
    bracket,
    so_algebra,
    so_subalgebra_split,
)
from transgress.algebra import ContractError, HALF
from transgress.weil import UniversalSetup


def substitute_form(x, value):
    return LieValuedForm(
        x.algebra, x.ctx,
        tuple(substitute_t(c, value) for c in x.components), x.degree)


class TestDifferential:
    def test_abelian_d_omega_is_curvature(self):
        setup = UniversalSetup(abelian_algebra(3))
        for a in range(3):
            assert setup.d(setup.connection.components[a]) == \
                setup.curvature.components[a]

    def test_d_squared_on_200_random_elements(self, so4_setup):
        rng = random.Random(424242)
        ctx = so4_setup.context
        d = so4_setup.d
        for _ in range(200):
            x = ctx.random_element(rng, terms=3, max_odd=3, max_even=1, max_t=1)
            assert d(d(x)).is_zero

    def test_d_squared_witness_none_for_valid_algebras(self, shipped_setups):
        for name, setup in shipped_setups.items():
            assert setup.d_squared_witness() is None, name

    def test_structure_equation_is_definitionally_zero(self, so4_setup):
        s = so4_setup
        residual = (s.curvature - s.d_form(s.connection)
                    - bracket(s.connection, s.connection).scale(HALF))
        assert residual.is_zero
        assert s.d_form(residual).is_zero


class TestInterior:
    def test_defining_images(self, so4_setup):
        s = so4_setup
        x = s.split.h[0]
        iota = interior(s, x)
        assert iota(s.connection.components[x]) == s.context.one()
        for a in range(s.algebra.dim):
            assert iota(s.curvature.components[a]).is_zero
            if a != x:
                assert iota(s.connection.components[a]).is_zero

    def test_rejects_complement_index(self, so4_setup):
        with pytest.raises(ContractError):
            interior(so4_setup, so4_setup.split.p[0])

    def test_square_zero_and_anticommute(self, so4_setup):
        s = so4_setup
        rng = random.Random(5)
        xs = s.split.h
        for _ in range(30):
            e = s.context.random_element(rng, terms=3, max_odd=3, max_even=2)
            for x in xs:
                ix = interior(s, x)
                assert ix(ix(e)).is_zero
            for x in xs:
                for y in xs:
                    if x >= y:
                        continue
                    ix, iy = interior(s, x), interior(s, y)
                    assert (ix(iy(e)) + iy(ix(e))).is_zero


class TestLieDerivative:
    def test_coadjoint_action_on_connection(self, so4_setup):
        # L_x(w[a]) == -sum_b c[a, x, b] w[b], expanded from the table
        s = so4_setup
        for x in s.split.h:
            L = lie_derivative(s, x)
            for a in range(s.algebra.dim):
                got = L(s.connection.components[a])
                expected = s.context.zero()
                for b in range(s.algebra.dim):
                    coeff = s.algebra.c(a, x, b)
                    if not coeff.is_zero:
                        expected = expected + s.context.gen(b).scale(-coeff)
                assert got == expected, (x, a)

    def test_kills_constants(self, so4_setup):
        L = lie_derivative(so4_setup, so4_setup.split.h[0])
        assert L(so4_setup.context.scalar(Scalar(7, two_pi=1))).is_zero

    def test_commutes_with_d(self, so4_setup):
        s = so4_setup
        rng = random.Random(12)
        for x in s.split.h:
            L = lie_derivative(s, x)
            for _ in range(10):
                e = s.context.random_element(rng, terms=3, max_odd=3, max_even=1)
                assert L(s.d(e)) == s.d(L(e))


class TestCurvatureDecomposition:
    def test_abelian_sub_curvature_is_h_curvature(self):
        algebra = abelian_algebra(3)
        setup = UniversalSetup(algebra, ReductiveSplit.from_h(3, (0, 2)))
        psi_c = setup.sub_curvature
        for a in range(3):
            if a in setup.split.h:
                assert psi_c.components[a] == setup.curvature.components[a]
            else:
                assert psi_c.components[a].is_zero

    def test_sub_curvature_supported_on_h(self, shipped_setups):
        for name, setup in shipped_setups.items():
            assert set(setup.sub_curvature.support()) <= set(setup.split.h), name

    def test_decomposition_identity(self, shipped_setups):
        # curvature == sub-curvature + covariant-d(tensor) + 1/2 [tensor, tensor]
        for name, setup in shipped_setups.items():
            rhs = (setup.sub_curvature + covariant_d_tensor(setup)
                   + setup.tensor_bracket.scale(HALF))
            assert setup.curvature == rhs, name

    def test_write_back_identity(self, shipped_setups):
        for name, setup in shipped_setups.items():
            rhs = (setup.curvature - setup.sub_curvature
                   - setup.tensor_bracket.scale(HALF))
            assert covariant_d_tensor(setup) == rhs, name

    @pytest.mark.parametrize("n", [4, 6])
    def test_covariant_d_tensor_has_no_h_part(self, n, so4_setup, so6_setup):
        setup = so4_setup if n == 4 else so6_setup
        for a in setup.split.h:
            assert covariant_d_tensor(setup).components[a].is_zero


class TestDeformationFamily:
    def test_three_constructions_agree(self, shipped_setups):
        for name, setup in shipped_setups.items():
            by_definition = setup.deformed_curvature
            assert by_definition == deformed_curvature_expanded(setup), name
            assert by_definition == deformed_curvature_interpolated(setup), name

    def test_endpoints(self, shipped_setups):
        for name, setup in shipped_setups.items():
            family = setup.deformed_curvature
            assert substitute_form(family, ONE) == setup.curvature, name
            assert substitute_form(family, ZERO) == setup.sub_curvature, name

    def test_bianchi_on_family(self, shipped_setups):
        for name, setup in shipped_setups.items():
            assert setup.bianchi_deformation_witness() is None, name

    @pytest.mark.parametrize("n", [4, 6])
    def test_h_block_shortcut_for_so_pairs(self, n, so4_setup, so6_setup):
        # on h components: Omega(t) == Omega - (1 - t^2)/2 [tensor, tensor]
        setup = so4_setup if n == 4 else so6_setup
        family = setup.deformed_curvature
        tb_half = setup.tensor_bracket.scale(HALF)
        shortcut = setup.curvature - tb_half + tb_half.times_t(2)
        for a in setup.split.h:
            assert family.components[a] == shortcut.components[a]

    def test_family_reduces_to_curvature_on_complement_for_so(self, so4_setup):
        # complement components carry only the t * curvature term
        s = so4_setup
        family = s.deformed_curvature
        for a in s.split.p:
            assert family.components[a] == s.curvature.components[a].times_t(1)


class TestCorruptedAlgebra:
    def test_d_squared_witness_detects_bad_structure(self):
        from transgress.lie import LieAlgebra

        base = so_algebra(4)
        structure = dict(base.structure)
        key = sorted(structure)[0]
        a, b, c = key
        structure[key] = structure[key] + Scalar(1)
        structure[(a, c, b)] = -structure[key]
        bad = LieAlgebra(base.dim, base.labels, structure)
        setup = UniversalSetup(bad, so_subalgebra_split(base, 3))
        witness = setup.d_squared_witness()
        assert witness is not None
        label, residue = witness
        assert not residue.is_zero


def assert_same_witness(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[1].leading_term_str() == want[1].leading_term_str()


def assert_same_probe(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want and got.leading_term_str() == want.leading_term_str()


class TestBatchedDSquared:
    """The one-pass d.d witness and probe against one pair of derivation
    calls per generator and per draw: the same first generator, draw and
    residue."""

    @pytest.mark.parametrize("name,sub,bump", [
        ("so4", "so3", (0, 1, 2, ONE)),
        ("so4", "so3", (5, 3, 4, ONE)),
        ("gl3", "gl2", (0, 1, 3, ONE)),
        ("u2", "0,1", (0, 1, 2, ONE)),
        ("su2", "u1", (0, 0, 1, ONE)),
        # Gaussian d images, so the batch of d.d multiplies i parts
        ("so4", "so3", (0, 1, 2, Scalar(0, 1))),
    ])
    def test_table_that_breaks_jacobi(self, name, sub, bump):
        from transgress.lie import LieAlgebra, named_algebra, named_split

        base = named_algebra(name)
        structure = dict(base.structure)
        a, b, c, value = bump
        structure[(a, b, c)] = structure.get((a, b, c), ZERO) + value
        structure[(a, c, b)] = -structure[(a, b, c)]
        bad = LieAlgebra(base.dim, base.labels, structure, name=name + "+corrupt")
        setup = UniversalSetup(bad, named_split(base, sub))
        assert_same_witness(setup.d_squared_witness(), d_squared_witness_by_generator(setup))
        assert setup.d_squared_witness() is not None
        for seed in range(4):
            assert_same_probe(setup.d_squared_probe(seed), d_squared_probe_by_draw(setup, seed))

    @pytest.mark.parametrize("gid", [0, 2, 5, 6, 11])
    def test_broken_derivation_image(self, gid, so4_setup):
        from transgress.algebra import Derivation

        setup = UniversalSetup(so4_setup.algebra, so4_setup.split)
        ctx, dim = setup.context, setup.algebra.dim
        images = dict(setup.d.images)
        gen = ctx.generator(gid)
        extra = ctx.gen(dim + 1) if gen.is_odd else ctx.gen(dim + 2) * ctx.gen(1)
        images[gid] = images[gid] + extra.scale(Scalar(3, 0))
        setup.d = Derivation(ctx, images, +1)
        witness = setup.d_squared_witness()
        assert witness is not None
        assert_same_witness(witness, d_squared_witness_by_generator(setup))
        for seed in range(4):
            assert_same_probe(setup.d_squared_probe(seed), d_squared_probe_by_draw(setup, seed))

    def test_valid_algebras_pass_both(self, shipped_setups):
        for name, setup in shipped_setups.items():
            assert setup.d_squared_witness() is None, name
            assert setup.d_squared_probe(7) is None, name
            assert d_squared_probe_by_draw(setup, 7) is None, name
