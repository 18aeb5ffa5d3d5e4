import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    apply_to_coordinates,
    bareiss_determinant,
    dense_ad_invariance_witness,
    direction_residues_by_scalars,
    hermitian_su2,
    make_matrix,
    naive_evaluate,
    pfaffian_by_permutations,
    perm_sign_by_swaps,
    pfaffian_permutation_sum,
    random_homogeneous,
    skew_coordinates,
    split_evaluate,
    symmetrized_trace_by_scalar_walks,
    symmetrized_trace_permutation_sum,
)
from transgress import invariants
from transgress.algebra import Context, ContractError, Generator, GradedElement, Scalar
from transgress.invariants import (
    InvariantPolynomial,
    _perfect_matchings,
    evaluate,
    pfaffian,
    symmetrized_trace,
)
from transgress.lie import (
    LieAlgebra,
    LieValuedForm,
    abelian_algebra,
    gl_algebra,
    named_algebra,
    so_algebra,
    so_subalgebra_split,
    su2_algebra,
    u_algebra,
)
from transgress.transgression import double_factorial
from transgress.weil import UniversalSetup

def form_context(dim, n_even=0):
    gens = [Generator(a, 1, f"w[{a}]") for a in range(dim)]
    gens += [Generator(dim + a, 2, f"W[{a}]") for a in range(n_even)]
    return Context(gens)


def random_lvf(algebra, ctx, rng, degree, **options):
    comps = []
    for _ in range(algebra.dim):
        if rng.random() < 0.35:
            comps.append(ctx.zero())
        else:
            comps.append(random_homogeneous(ctx, rng, degree, terms=2, **options))
    return LieValuedForm(algebra, ctx, comps, degree)


def with_powers(form, power_of):
    """The form with each coefficient carrying the (2pi) power
    ``power_of(mono)``."""
    comps = [GradedElement(form.ctx, {m: Scalar(c.re, c.im, two_pi=power_of(m))
                                      for m, c in comp.terms.items()})
             for comp in form.components]
    return LieValuedForm(form.algebra, form.ctx, comps, form.degree)


class TestBuilders:
    def test_trace_on_u1_is_i(self):
        P = symmetrized_trace(u_algebra(1), 1)
        assert P.values == {(0,): Scalar(0, 1)}

    def test_trace_square_su2_is_killing_multiple(self):
        algebra = su2_algebra()
        P = symmetrized_trace(algebra, 2)
        for a in range(3):
            for b in range(a, 3):
                want = Scalar(Fraction(-1, 2)) if a == b else None
                assert P.value((a, b)) == (want or Scalar(0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trace_power_gl2_ad_invariant(self, k):
        P = symmetrized_trace(gl_algebra(2), k)
        assert P.ad_invariance_witness() is None

    def test_missing_matrices_rejected(self):
        from transgress.lie import LieAlgebra

        bare = LieAlgebra(2, ("a", "b"), {})
        with pytest.raises(ContractError):
            symmetrized_trace(bare, 2)

    def test_pfaffian_needs_even_so(self):
        with pytest.raises(ContractError):
            pfaffian(so_algebra(3))
        with pytest.raises(ContractError):
            pfaffian(gl_algebra(2))

    @pytest.mark.parametrize("poly_builder", [
        lambda: pfaffian(so_algebra(4)),
        lambda: pfaffian(so_algebra(6)),
        lambda: symmetrized_trace(su2_algebra(), 2),
        lambda: symmetrized_trace(gl_algebra(3), 2),
        lambda: symmetrized_trace(gl_algebra(3), 3),
        lambda: symmetrized_trace(u_algebra(2), 2),
        lambda: symmetrized_trace(u_algebra(3), 3),
    ])
    def test_shipped_polynomials_ad_invariant(self, poly_builder):
        P = poly_builder()
        assert P.ad_invariance_witness() is None
        assert dense_ad_invariance_witness(P) is None

    def test_rejects_unsorted_keys(self):
        algebra = abelian_algebra(2)
        with pytest.raises(ContractError):
            InvariantPolynomial(algebra, 2, {(1, 0): Scalar(1)})


class TestPfaffianValues:
    def test_n2_explicit(self):
        algebra = so_algebra(2)
        P = pfaffian(algebra)
        # permutation sum doubles the entry; prefactor -1/2 per convention
        assert P.values == {(0,): Scalar(2)}
        a = Fraction(5, 7)
        matrix = make_matrix([[0, a], [-a, 0]])
        got = apply_to_coordinates(P, skew_coordinates(algebra, matrix))
        assert got == Scalar(-a, two_pi=1)

    def test_n4_block_diagonal(self):
        algebra = so_algebra(4)
        P = pfaffian(algebra)
        a, b = Fraction(2, 3), Fraction(-5, 4)
        matrix = make_matrix([
            [0, a, 0, 0],
            [-a, 0, 0, 0],
            [0, 0, 0, b],
            [0, 0, -b, 0],
        ])
        got = apply_to_coordinates(P, skew_coordinates(algebra, matrix))
        assert got == Scalar(a * b, two_pi=2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_20_random_skews_match_bruteforce(self, n):
        algebra = so_algebra(n)
        P = pfaffian(algebra)
        rng = random.Random(1000 + n)
        for _ in range(20):
            upper = {}
            rows = [[Scalar(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    rows[i][j] = v
                    rows[j][i] = -v
            matrix = make_matrix(rows)
            via_tensor = apply_to_coordinates(P, skew_coordinates(algebra, matrix))
            via_sum = pfaffian_permutation_sum(matrix)
            assert via_tensor == via_sum

    @pytest.mark.parametrize("n", [4, 6])
    def test_vanishes_on_sub_curvature(self, n, so4_setup, so6_setup):
        setup = so4_setup if n == 4 else so6_setup
        P = pfaffian(setup.algebra)
        k = P.degree
        assert evaluate(P, [setup.sub_curvature] * k).is_zero


# The largest degree per algebra at which the permutation-sum oracle stays
# well under a second.
TRACE_ORACLE_DEGREES = {
    "so4": 4, "so5": 3, "so6": 2, "gl2": 4, "gl3": 3, "gl4": 2,
    "u2": 4, "u3": 3, "su2": 4, "abelian3": 4,
}


def random_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j], rows[j][i] = v, -v
    return rows


class TestSparseTensorOracles:
    """The closed-walk trace and the matching Pfaffian against the
    permutation sums they replace: the same items in the same order."""

    @pytest.mark.parametrize("name, k", [
        (name, k) for name, top in TRACE_ORACLE_DEGREES.items()
        for k in range(1, top + 1)])
    def test_symmetrized_trace(self, name, k):
        algebra = named_algebra(name)
        got = symmetrized_trace(algebra, k)
        want = symmetrized_trace_permutation_sum(algebra, k)
        assert list(got.values.items()) == list(want.values.items())
        assert got.prefactor == want.prefactor

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pfaffian(self, n):
        algebra = so_algebra(n)
        got, want = pfaffian(algebra), pfaffian_by_permutations(algebra)
        assert list(got.values.items()) == list(want.values.items())
        assert got.prefactor == want.prefactor

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_perfect_matchings(self, n):
        # Permutations are enumerated lexicographically, so the permutation
        # sum first meets a matching as its canonical listing (pairs by first
        # point, each pair ascending), and meets the matchings in the
        # lexicographic order of those listings.
        listed = [(sum(pairs, ()), sign)
                  for pairs, sign in _perfect_matchings(tuple(range(n)))]
        flat = [word for word, _ in listed]
        assert len(flat) == double_factorial(n - 1)
        assert flat == sorted(set(flat))
        for word, sign in listed:
            firsts = word[0::2]
            assert sorted(word) == list(range(n))
            assert list(firsts) == sorted(firsts)
            assert all(a < b for a, b in zip(word[0::2], word[1::2]))
            assert sign == perm_sign_by_swaps(word)
        algebra = so_algebra(n)
        index = {pair: idx for idx, pair in enumerate(algebra.meta["pairs"])}
        k = n // 2
        assert list(pfaffian(algebra).values.items()) == [
            (tuple(sorted(index[p] for p in pairs)), Scalar(sign * 2 ** k))
            for pairs, sign in _perfect_matchings(tuple(range(n)))]

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_pfaffian_squared_is_determinant(self, n):
        algebra = so_algebra(n)
        P = pfaffian(algebra)
        k = n // 2
        # apply_to_coordinates gives (-1)^k Pf(A) (2pi)^-k
        unscale = Scalar((-1) ** k, 0, -k)
        rng = random.Random(2000 + n)
        for _ in range(5):
            rows = random_skew(rng, n)
            coords = skew_coordinates(algebra, make_matrix(rows))
            pf = apply_to_coordinates(P, coords) * unscale
            assert pf.im == 0 and pf.two_pi == 0
            assert pf.re ** 2 == bareiss_determinant(rows)

    def test_bareiss_matches_leibniz(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)]
            leibniz = Fraction(0)
            for perm in itertools.permutations(range(n)):
                term = Fraction(perm_sign_by_swaps(perm))
                for i, j in enumerate(perm):
                    term *= rows[i][j]
                leibniz += term
            assert bareiss_determinant(rows) == leibniz
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0


class TestEvaluate:
    def test_k1_trace_on_gl1(self):
        algebra = gl_algebra(1)
        P = symmetrized_trace(algebra, 1)
        ctx = form_context(1)
        phi = LieValuedForm(algebra, ctx, (ctx.gen(0),), 1)
        assert evaluate(P, [phi]) == ctx.gen(0)

    def test_abelian_product_functional(self):
        # product of two coordinate functionals on R^2, polarized
        algebra = abelian_algebra(2)
        P = InvariantPolynomial(algebra, 2, {(0, 1): Scalar(Fraction(1, 2))})
        ctx = form_context(2, n_even=2)
        curv = LieValuedForm(algebra, ctx, (ctx.gen(2), ctx.gen(3)), 2)
        got = evaluate(P, [curv, curv])
        assert got == ctx.gen(2) * ctx.gen(3)

    def test_even_arguments_commute_in_slots(self):
        algebra = su2_algebra()
        P = symmetrized_trace(algebra, 2)
        ctx = form_context(3, n_even=3)
        rng = random.Random(2)
        x = random_lvf(algebra, ctx, rng, 2)
        y = random_lvf(algebra, ctx, rng, 2)
        assert evaluate(P, [x, y]) == evaluate(P, [y, x])

    def test_odd_arguments_anticommute_in_slots(self):
        algebra = su2_algebra()
        P = symmetrized_trace(algebra, 2)
        ctx = form_context(3, n_even=3)
        rng = random.Random(3)
        x = random_lvf(algebra, ctx, rng, 1)
        y = random_lvf(algebra, ctx, rng, 1)
        assert evaluate(P, [x, y]) == -evaluate(P, [y, x])

    def test_multilinearity(self):
        algebra = gl_algebra(2)
        P = symmetrized_trace(algebra, 2)
        ctx = form_context(4, n_even=4)
        rng = random.Random(4)
        x = random_lvf(algebra, ctx, rng, 1)
        x2 = random_lvf(algebra, ctx, rng, 1)
        y = random_lvf(algebra, ctx, rng, 2)
        s = Scalar(Fraction(2, 5))
        lhs = evaluate(P, [x + x2.scale(s), y])
        rhs = evaluate(P, [x, y]) + evaluate(P, [x2, y]).scale(s)
        assert lhs == rhs

    def test_arity_and_algebra_mismatch(self):
        algebra = gl_algebra(2)
        P = symmetrized_trace(algebra, 2)
        ctx = form_context(4)
        x = LieValuedForm(algebra, ctx,
                          tuple(ctx.gen(a) for a in range(4)), 1)
        with pytest.raises(ContractError):
            evaluate(P, [x])
        other = LieValuedForm(gl_algebra(2), ctx,
                              tuple(ctx.gen(a) for a in range(4)), 1)
        from transgress.algebra import ContextError

        with pytest.raises(ContextError):
            evaluate(P, [x, other])

    @pytest.mark.parametrize("scenario", ["distinct", "repeated-even", "repeated-odd"])
    def test_matches_naive_oracle(self, scenario):
        algebra = su2_algebra()
        P = symmetrized_trace(algebra, 2)
        ctx = form_context(3, n_even=3)
        rng = random.Random(hash(scenario) % (2 ** 31))
        if scenario == "distinct":
            args = [random_lvf(algebra, ctx, rng, 1), random_lvf(algebra, ctx, rng, 2)]
        elif scenario == "repeated-even":
            y = random_lvf(algebra, ctx, rng, 2)
            args = [y, y]
        else:
            x = random_lvf(algebra, ctx, rng, 1)
            args = [x, x]
        assert evaluate(P, args) == naive_evaluate(P, args)

    def test_matches_naive_oracle_pfaffian_k2(self, so4_setup):
        P = pfaffian(so4_setup.algebra)
        s = so4_setup
        family = s.deformed_curvature
        args = [s.tensor_form, family]
        assert evaluate(P, args) == naive_evaluate(P, args)
        args = [family, family]
        assert evaluate(P, args) == naive_evaluate(P, args)

    def test_matches_naive_oracle_trace3(self, gl3_setup):
        P = symmetrized_trace(gl3_setup.algebra, 3)
        s = gl3_setup
        args = [s.tensor_form, s.sub_curvature, s.curvature]
        assert evaluate(P, args) == naive_evaluate(P, args)

    def test_matches_naive_oracle_interleaved_repeats(self, gl3_setup):
        # an even repeat straddling an odd slot exercises the regrouping
        P = symmetrized_trace(gl3_setup.algebra, 3)
        s = gl3_setup
        args = [s.sub_curvature, s.tensor_form, s.sub_curvature]
        assert evaluate(P, args) == naive_evaluate(P, args)


# su2-hermitian: every structure constant imaginary
GATE_ALGEBRAS = ("so4", "so6", "gl3", "su2", "u2", "u3", "su2-hermitian")


@cache
def gate_algebra(name):
    return hermitian_su2() if name == "su2-hermitian" else named_algebra(name)


@cache
def corrupted_so4(a, b, c):
    """so4 with one structure constant bumped, as ``--corrupt structure``
    does it."""
    algebra = so_algebra(4)
    structure = dict(algebra.structure)
    bumped = structure.get((a, b, c), Scalar(0)) + Scalar(1)
    structure[(a, b, c)] = bumped
    structure[(a, c, b)] = -bumped
    return LieAlgebra(algebra.dim, algebra.labels, structure, algebra.matrices,
                      name="so4+corrupt", meta=algebra.meta)


gate_scalars = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.one_of(st.just(0), st.integers(-2, 2)))


@st.composite
def sparse_tensors(draw, algebra):
    k = draw(st.integers(1, 3))
    keys = st.lists(st.integers(0, algebra.dim - 1), min_size=k, max_size=k)
    entries = draw(st.lists(st.tuples(keys, gate_scalars), max_size=6))
    return InvariantPolynomial(
        algebra, k, {tuple(sorted(key)): v for key, v in entries})


def assert_gates_agree(P):
    assert P.ad_invariance_witness() == dense_ad_invariance_witness(P)


def walked_directions(monkeypatch) -> list:
    """The directions the gate pushes the tensor through, in order."""
    walked = []
    push = invariants._direction_residues

    def spy(P, x):
        walked.append(x)
        return push(P, x)

    monkeypatch.setattr(invariants, "_direction_residues", spy)
    return walked


class TestAdInvarianceGate:
    """The sparse push-forward gate against the dense scan: the same first
    (direction, tuple, residue), not only the same verdict."""

    @given(st.sampled_from(GATE_ALGEBRAS).flatmap(
        lambda name: sparse_tensors(gate_algebra(name))))
    @settings(max_examples=120, deadline=None)
    def test_random_sparse_tensors(self, P):
        assert_gates_agree(P)

    @given(st.sampled_from(("gl3", "u2", "u3")).flatmap(
        lambda name: sparse_tensors(gate_algebra(name))))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_trace(self, perturbation):
        # an invariant tensor plus a sparse perturbation: the witness sits
        # wherever the perturbation first breaks invariance
        base = symmetrized_trace(perturbation.algebra, perturbation.degree)
        values = dict(base.values)
        for key, v in perturbation.values.items():
            values[key] = values.get(key, Scalar(0)) + v
        assert_gates_agree(
            InvariantPolynomial(base.algebra, base.degree, values))

    @given(st.tuples(*[st.integers(0, 5)] * 3).flatmap(
        lambda abc: st.tuples(st.just(abc),
                              sparse_tensors(corrupted_so4(*abc)))))
    @settings(max_examples=40, deadline=None)
    def test_corrupted_structure(self, case):
        abc, P = case
        assert_gates_agree(P)
        assert_gates_agree(pfaffian(corrupted_so4(*abc)))

    def test_pinned_gl3_witness(self):
        # E11 (x) E11 alone: ad E11 keeps it, ad E12 does not, since
        # P(E11, [E12, E21]) = P(E11, E11 - E22) = 1
        P = InvariantPolynomial(gl_algebra(3), 2, {(0, 0): Scalar(1)})
        assert dense_ad_invariance_witness(P) == (1, (0, 3), Scalar(1))
        assert P.ad_invariance_witness() == (1, (0, 3), Scalar(1))

    def test_zero_prefactor_is_invariant(self):
        # a zero prefactor makes the zero polynomial, which keeps no values
        P = InvariantPolynomial(gl_algebra(3), 2, {(0, 0): Scalar(1)}).scaled(0)
        assert P.values == {}
        assert P.ad_invariance_witness() is None

    @pytest.mark.parametrize("name", GATE_ALGEBRAS)
    def test_pruned_against_dense(self, name):
        # invariant tensors, and each with one diagonal entry bumped
        algebra = gate_algebra(name)
        tensors = [symmetrized_trace(algebra, k) for k in (1, 2, 3)]
        if name.startswith("so"):
            tensors.append(pfaffian(algebra))
        for P in tensors:
            assert_gates_agree(P)
            for a in range(algebra.dim):
                values = dict(P.values)
                key = (a,) * P.degree
                values[key] = values.get(key, Scalar(0)) + Scalar(1)
                assert_gates_agree(InvariantPolynomial(algebra, P.degree, values))

    def test_pinned_witness_after_a_skip(self, monkeypatch):
        # the dual of iE33 is invariant under u(2) + u(1): the torus (0, 1, 2)
        # and A12 (3) pass, S12 (4) lies in the subalgebra they generate and
        # is skipped, and A13 (5) is the first direction that fails
        P = InvariantPolynomial(named_algebra("u3"), 1, {(2,): Scalar(1)})
        walked = walked_directions(monkeypatch)
        assert P.ad_invariance_witness() == (5, (6,), Scalar(-2))
        assert walked == [0, 1, 2, 3, 5]
        assert dense_ad_invariance_witness(P) == (5, (6,), Scalar(-2))

    @pytest.mark.parametrize("name, poly, walk", [
        ("so8", "pfaffian", [0, 1, 2, 3, 4, 5, 6]),
        ("gl3", "trace^2", [0, 1, 2, 3, 6]),
    ])
    def test_pinned_walks(self, monkeypatch, name, poly, walk):
        # so8: E[1,2] ... E[1,8] generate so8; gl3: E11, E12, E13 and E21
        # generate the matrices with third row zero, and E31 the rest
        algebra = named_algebra(name)
        P = pfaffian(algebra) if poly == "pfaffian" else symmetrized_trace(algebra, 2)
        walked = walked_directions(monkeypatch)
        assert P.ad_invariance_witness() is None
        assert walked == walk

    @pytest.mark.parametrize("mirror", [False, True], ids=["antisymmetry", "jacobi"])
    def test_broken_bracket_walks_every_direction(self, monkeypatch, mirror):
        # without a Lie bracket the annihilator need not be a subalgebra, so
        # the zero tensor, which every direction passes, is walked in full
        algebra = so_algebra(4)
        structure = dict(algebra.structure)
        structure[(0, 1, 3)] = structure.get((0, 1, 3), Scalar(0)) + Scalar(1)
        if mirror:
            structure[(0, 3, 1)] = -structure[(0, 1, 3)]
        broken = LieAlgebra(algebra.dim, algebra.labels, structure, algebra.matrices,
                            meta=algebra.meta)
        assert broken._bracket_failures[0].invariant == (
            "jacobi" if mirror else "antisymmetry")
        walked = walked_directions(monkeypatch)
        assert InvariantPolynomial(broken, 2, {}).ad_invariance_witness() is None
        assert walked == list(range(algebra.dim))
        walked.clear()
        assert InvariantPolynomial(algebra, 2, {}).ad_invariance_witness() is None
        assert walked == [0, 1, 2]
        assert_gates_agree(pfaffian(broken))


def residues_or_error(residues, P, x):
    try:
        return residues(P, x)
    except ContractError as exc:
        return f"ContractError: {exc}"


@st.composite
def powered_tensors(draw):
    """A sparse tensor with its values lifted to one drawn power: 1,
    (2pi)^-1 or (2pi)^-2."""
    P = draw(st.sampled_from(GATE_ALGEBRAS).flatmap(
        lambda name: sparse_tensors(gate_algebra(name))))
    power = draw(st.integers(0, 2))
    return InvariantPolynomial(P.algebra, P.degree, {
        key: Scalar(v.re, v.im, power) for key, v in P.values.items()})


class TestIntegerSetupOracles:
    """The trace walks and the gate's residues on integer numerators
    against their Scalar versions."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["gl1", "gl2", "gl3", "gl4", "u1", "u2", "u3", "u4",
                                      "su2", "su2-hermitian"])
    def test_trace_values_and_key_order(self, name, k):
        algebra = gate_algebra(name)
        got, want = symmetrized_trace(algebra, k), symmetrized_trace_by_scalar_walks(algebra, k)
        assert list(got.values.items()) == list(want.values.items())

    @given(st.one_of(st.sampled_from(GATE_ALGEBRAS).flatmap(
        lambda name: sparse_tensors(gate_algebra(name))), powered_tensors()))
    @settings(max_examples=120, deadline=None)
    def test_residues(self, P):
        for x in range(P.algebra.dim):
            assert (residues_or_error(invariants._direction_residues, P, x)
                    == residues_or_error(direction_residues_by_scalars, P, x))


EVAL_ALGEBRAS = ("su2", "gl2", "u2", "so4")


@cache
def eval_context(name):
    algebra = gate_algebra(name)
    return algebra, form_context(algebra.dim, n_even=algebra.dim)


@st.composite
def evaluation_cases(draw, gaussian=False, powers=False):
    """A sparse tensor whose keys repeat indices, with Gaussian values and
    prefactor, and an argument list drawn from a pool of forms of degree 1
    to 3.  A form may fill several slots, adjacent or not, and may vanish.

    ``gaussian`` gives the forms imaginary parts.  ``powers`` gives the
    values one (2pi) power and each form one power of its own."""
    algebra, ctx = eval_context(draw(st.sampled_from(EVAL_ALGEBRAS)))
    k = draw(st.integers(1, 4))
    key = st.lists(st.integers(0, algebra.dim - 1), min_size=k, max_size=k)
    entries = draw(st.lists(st.tuples(key, gate_scalars), min_size=1, max_size=8))
    if powers:
        power = draw(st.integers(-2, 2))
        entries = [(key, Scalar(v.re, v.im, power)) for key, v in entries]
    prefactor = draw(st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2),
                               st.integers(0, 2)))
    P = InvariantPolynomial(
        algebra, k, {tuple(sorted(key)): v for key, v in entries}, prefactor)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    pool = []
    for degree in draw(st.lists(st.sampled_from((1, 2, 2, 3)),
                                min_size=1, max_size=3)):
        if draw(st.integers(0, 5)) == 0:
            pool.append(LieValuedForm.zero(algebra, ctx, degree))
        elif powers:
            offset = draw(st.integers(-1, 2))
            form = random_lvf(algebra, ctx, rng, degree, max_t=2, gaussian=gaussian)
            pool.append(with_powers(form, lambda m: offset))
        else:
            pool.append(random_lvf(algebra, ctx, rng, degree, gaussian=gaussian))
    slots = draw(st.lists(st.integers(0, len(pool) - 1), min_size=k, max_size=k))
    return P, [pool[i] for i in slots]


def gaussian_values_on_gaussian_forms():
    """A tensor with Gaussian values and a Gaussian prefactor on u2, on
    forms with Gaussian coefficients, so that products multiply Gaussian
    factors on both sides."""
    algebra, ctx = eval_context("u2")
    rng = random.Random(20261)
    P = InvariantPolynomial(algebra, 3, {
        (0, 1, 1): Scalar(1, 2), (1, 2, 3): Scalar(0, -1), (0, 0, 3): Scalar(Fraction(1, 2), 1),
        (2, 2, 2): Scalar(-1, Fraction(1, 3))}, Scalar(Fraction(1, 2), -1))
    x = random_lvf(algebra, ctx, rng, 1, gaussian=True)
    F = random_lvf(algebra, ctx, rng, 2, gaussian=True)
    return P, [x, F, F]


@cache
def slot_pattern_pool():
    """A dense degree-4 tensor on gl2 and forms named by one letter: x of
    degree 1, y of degree 3, F and G of degree 2, and the zero 2-form 0."""
    algebra, ctx = eval_context("gl2")
    rng = random.Random(20041)
    values = {key: Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
              for key in itertools.combinations_with_replacement(range(algebra.dim), 4)}
    pool = {name: random_lvf(algebra, ctx, rng, degree)
            for name, degree in (("x", 1), ("y", 3), ("F", 2), ("G", 2))}
    pool["0"] = LieValuedForm.zero(algebra, ctx, 2)
    return InvariantPolynomial(algebra, 4, values, Scalar(Fraction(-1, 2))), pool


class TestPlanDrivenEvaluate:
    """``evaluate`` against the split-enumerating evaluator and, where the
    full sum over basis multi-indices is small, the naive one."""

    @staticmethod
    def assert_matches_oracles(P, args):
        got = evaluate(P, args)
        assert got == split_evaluate(P, args)
        if P.algebra.dim ** P.degree <= 256:
            assert got == naive_evaluate(P, args)

    @given(evaluation_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracles(self, case):
        self.assert_matches_oracles(*case)

    @given(evaluation_cases(gaussian=True))
    @example(gaussian_values_on_gaussian_forms())
    @settings(max_examples=80, deadline=None)
    def test_gaussian_forms(self, case):
        self.assert_matches_oracles(*case)

    @given(st.booleans().flatmap(
        lambda gaussian: evaluation_cases(gaussian=gaussian, powers=True)))
    @settings(max_examples=80, deadline=None)
    def test_two_pi_powers(self, case):
        self.assert_matches_oracles(*case)

    def test_values_with_mixed_powers(self):
        algebra, ctx = eval_context("su2")
        curvature = LieValuedForm(algebra, ctx, [ctx.gen(3 + a) for a in range(3)], 2)
        P = InvariantPolynomial(algebra, 2, {
            (0, 0): Scalar(1, two_pi=1), (0, 1): Scalar(Fraction(1, 2), two_pi=2),
            (2, 2): Scalar(0, 3)}, Scalar(Fraction(-1, 4), 1, two_pi=1))
        # values at two powers are refused, also where the oracles' terms
        # land on distinct monomials
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            evaluate(P, [curvature, curvature])
        # with every component W[0], all three values land on W[0]^2
        collapsed = LieValuedForm(algebra, ctx, [ctx.gen(3)] * 3, 2)
        for evaluator in (evaluate, naive_evaluate, split_evaluate):
            with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
                evaluator(P, [collapsed, collapsed])
        # the same values at one power match the oracles
        Q = InvariantPolynomial(algebra, 2, {key: Scalar(v.re, v.im, 1)
                                             for key, v in P.values.items()}, P.prefactor)
        args = [curvature, curvature]
        got = evaluate(Q, args)
        assert got == naive_evaluate(Q, args) == split_evaluate(Q, args)
        assert {c.two_pi for c in got.terms.values()} == {2}

    @given(evaluation_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_same_shape_other_support(self, case, rnd):
        # the tensor with its basis indices permuted keeps the run lengths of
        # every key but meets other supports, so the second call contracts
        # the same slots and merges its residuals on other rests
        P, args = case
        perm = list(range(P.algebra.dim))
        rnd.shuffle(perm)
        Q = InvariantPolynomial(
            P.algebra, P.degree,
            {tuple(sorted(perm[a] for a in key)): v for key, v in P.values.items()},
            P.prefactor)
        for T in (P, Q):
            assert evaluate(T, args) == split_evaluate(T, args)

    @pytest.mark.parametrize("pattern", [
        "FFxy", "FFFx",  # the repeated even form first
        "xFFy", "xFyF", "FxyF",  # between or around odd forms
        "FGFG", "GFGF", "xGGF", "FGGF",  # even forms tied in count
        "xxFF", "xFxG", "yxyF",  # an odd form in two slots
        "x0FF", "FF00", "0000",  # a zero form
        "FFFF", "GGGG",  # no slot contracted: the values alone are the residuals
    ])
    def test_slot_patterns(self, pattern):
        # the slots each form fills decide which one goes last, and the
        # result must not depend on that choice
        P, pool = slot_pattern_pool()
        self.assert_matches_oracles(P, [pool[name] for name in pattern])

    def test_even_forms_commute(self):
        P, pool = slot_pattern_pool()
        x, F, G = pool["x"], pool["F"], pool["G"]
        P = InvariantPolynomial(P.algebra, 3, {key[1:]: v for key, v in P.values.items()
                                               if key[0] == 0})
        got = evaluate(P, [F, x, F])
        assert got == evaluate(P, [x, F, F]) == evaluate(P, [F, F, x])
        assert got == split_evaluate(P, [x, F, F]) and not got.is_zero
        assert evaluate(P, [G, x, F]) == evaluate(P, [x, F, G]) == naive_evaluate(P, [x, G, F])

    def test_prefix_sum_cancels(self):
        # F^1 = F^2 under opposite values: the sum at the prefix (0,) cancels
        # to no terms before F^0 multiplies it, and the rest (1, 1, 3) after
        # it still counts
        algebra, ctx = eval_context("gl2")
        F = LieValuedForm(algebra, ctx, [ctx.gen(a) for a in (4, 5, 5, 6)], 2)
        values = {(0, 1, 3): Scalar(3), (0, 2, 3): Scalar(-3)}
        assert evaluate(InvariantPolynomial(algebra, 3, values), [F] * 3).is_zero
        Q = InvariantPolynomial(algebra, 3, {**values, (1, 1, 3): Scalar(Fraction(1, 2))})
        assert not evaluate(Q, [F] * 3).is_zero
        self.assert_matches_oracles(Q, [F] * 3)


@cache
def pfaffian_run(n):
    """The Pfaffian of so(n) and the argument lists of its evaluations in a
    run over so(n-1): the integrand, P(F_t, ...), the two of the
    ad-invariance identity and johnson's P(x, Y, ...)."""
    algebra = so_algebra(n)
    s = UniversalSetup(algebra, so_subalgebra_split(algebra, n - 1))
    P = pfaffian(algebra)
    k = P.degree
    x, F = s.tensor_form, s.deformed_curvature
    Y = s.tensor_bracket.times_t(1) + s.sub_curvature.times_t(k) + s.curvature
    return P, {
        "integrand": [x] + [F] * (k - 1),
        "P(F_t)": [F] * k,
        "P([x,x],F_t)": [s.tensor_bracket] + [F] * (k - 1),
        "P(x,[F_t,x],F_t)": [x, s.family_tensor_bracket] + [F] * (k - 2),
        "johnson": [x] + [Y] * (k - 1),
    }


@pytest.mark.parametrize("name", ["integrand", "P(F_t)", "P([x,x],F_t)",
                                  "P(x,[F_t,x],F_t)", "johnson"])
@pytest.mark.parametrize("n", [6, 8])
def test_pfaffian_run_matches_split_oracle(n, name):
    # at so8 the sorted rests of the last argument share 2 or 3 entries
    P, runs = pfaffian_run(n)
    got = evaluate(P, runs[name])
    assert not got.is_zero
    assert got == split_evaluate(P, runs[name])
