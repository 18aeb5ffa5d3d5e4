import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_structure_from_matrices,
    dense_validate,
    direction_residues_by_scalars,
    generated_dimension,
    hermitian_su2,
    jacobi_witness_by_triples,
    make_matrix,
    mat_commutator,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_trace,
    random_homogeneous,
    symmetrized_trace_by_scalar_walks,
    tuple_bracket,
    tuple_terms,
)
from transgress import lie
from transgress.algebra import Context, ContractError, ContextError, Generator, Scalar
from transgress.invariants import (
    InvariantPolynomial,
    _direction_residues,
    pfaffian,
    symmetrized_trace,
)
from transgress.lie import (
    LieAlgebra,
    LieValuedForm,
    ReductiveSplit,
    abelian_algebra,
    algebra_from_dict,
    bracket,
    gl_algebra,
    gl_subalgebra_split,
    named_algebra,
    named_split,
    project,
    so_algebra,
    so_subalgebra_split,
    su2_algebra,
    su2_diagonal_split,
    structure_from_matrices,
    trivial_split,
    u_algebra,
    validate,
    validate_split,
)


def cyclic_so3():
    """so(3) in the cyclic convention c[3,1,2] = 1, via (L_a)_bc = -eps_abc."""
    L1 = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    L2 = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    L3 = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    structure = {}
    for (a, b, c) in [(2, 0, 1), (0, 1, 2), (1, 2, 0)]:
        structure[(a, b, c)] = Scalar(1)
        structure[(a, c, b)] = Scalar(-1)
    return LieAlgebra(3, ("L1", "L2", "L3"), structure, [L1, L2, L3], name="so3c")


def form_context(dim, n_even=0):
    gens = [Generator(a, 1, f"w[{a}]") for a in range(dim)]
    gens += [Generator(dim + a, 2, f"W[{a}]") for a in range(n_even)]
    return Context(gens)


def random_lvf(algebra, ctx, rng, degree, terms=1):
    comps = []
    for _ in range(algebra.dim):
        if rng.random() < 0.4:
            comps.append(ctx.zero())
        else:
            comps.append(random_homogeneous(ctx, rng, degree, terms=terms))
    return LieValuedForm(algebra, ctx, comps, degree)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

class TestValidate:
    def test_cyclic_so3_passes_matrix_oracle(self):
        algebra = cyclic_so3()
        report = validate(algebra)
        assert report.passed, report.failures
        # independent commutator check, not via validate()
        got = mat_commutator(algebra.matrices[0], algebra.matrices[1])
        assert got == algebra.matrices[2]

    @pytest.mark.parametrize("builder", [
        lambda: so_algebra(3), lambda: so_algebra(4), lambda: so_algebra(5),
        lambda: so_algebra(6), lambda: gl_algebra(2), lambda: gl_algebra(3),
        lambda: u_algebra(1), lambda: u_algebra(2), lambda: su2_algebra(),
        lambda: abelian_algebra(3),
    ])
    def test_builtin_algebras_pass(self, builder):
        report = validate(builder())
        assert report.passed, report.failures

    def test_abelian_passes_vacuously(self):
        assert validate(abelian_algebra(4)).passed

    def test_antisymmetry_failure_located(self):
        bad = LieAlgebra(3, ("a", "b", "c"),
                         {(0, 1, 2): Scalar(1), (0, 2, 1): Scalar(1)})
        report = validate(bad)
        assert not report.passed
        assert report.first().invariant == "antisymmetry"
        assert report.first().indices == (0, 1, 2)

    def test_jacobi_failure_detected(self):
        # add a spurious e1 component to [L1, L2]: antisymmetry survives
        # but [e3, e1] = e2 no longer cancels in the cyclic sum
        algebra = cyclic_so3()
        structure = dict(algebra.structure)
        structure[(0, 0, 1)] = Scalar(1)
        structure[(0, 1, 0)] = Scalar(-1)
        bad = LieAlgebra(3, algebra.labels, structure)
        report = validate(bad)
        assert not report.passed
        assert any(f.invariant == "jacobi" for f in report.failures)

    def test_matrix_mismatch_detected(self):
        algebra = cyclic_so3()
        structure = dict(algebra.structure)
        structure[(2, 0, 1)] = Scalar(3)
        structure[(2, 1, 0)] = Scalar(-3)
        bad = LieAlgebra(3, algebra.labels, structure, algebra.matrices)
        report = validate(bad)
        assert any(f.invariant == "matrix-realization" for f in report.failures)

    def test_structure_from_matrices_round_trip(self):
        algebra = so_algebra(4)
        rebuilt = structure_from_matrices(algebra.matrices)
        assert rebuilt == algebra.structure

    def test_su2_trace_form(self):
        algebra = su2_algebra()
        for a in range(3):
            for b in range(3):
                tr = mat_trace(mat_mul(algebra.matrices[a], algebra.matrices[b]))
                want = Scalar(Fraction(-1, 2)) if a == b else Scalar(0)
                assert tr == want


# The built-in algebras up to dimension 16.
BUILTINS_UP_TO_16 = (
    ["so2", "so3", "so4", "so5", "so6", "gl1", "gl2", "gl3", "gl4",
     "u1", "u2", "u3", "u4", "su2", "abelian1", "abelian4"])


def elementary(n, i, j, value=1):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = value
    return make_matrix(rows)


def bumped_table(name, *bumps):
    """A built-in algebra with each c[a,b,c] of the bumps (a, b, c, value,
    mirror) raised by value; with mirror, the (a, c, b) entry is set to its
    negative, as ``--corrupt structure`` does."""
    algebra = named_algebra(name)
    structure = dict(algebra.structure)
    for a, b, c, value, mirror in bumps:
        bumped = structure.get((a, b, c), Scalar(0)) + value
        structure[(a, b, c)] = bumped
        if mirror:
            structure[(a, c, b)] = -bumped
    return LieAlgebra(algebra.dim, algebra.labels, structure, algebra.matrices,
                      name=name + "+corrupt", meta=algebra.meta)


def perturbed_matrix(name, m, i, j, value):
    """A built-in algebra whose m-th matrix has entry (i, j) raised by value."""
    algebra = named_algebra(name)
    mats = [[list(row) for row in M] for M in algebra.matrices]
    mats[m][i][j] = mats[m][i][j] + value
    return LieAlgebra(algebra.dim, algebra.labels, algebra.structure, mats,
                      name=name + "+perturbed", meta=algebra.meta)


oracle_scalars = st.sampled_from(
    [Scalar(1), Scalar(-1), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(2, -1)])


@st.composite
def corrupted_tables(draw):
    name = draw(st.sampled_from(["so4", "gl3", "u2"]))
    index = st.integers(0, named_algebra(name).dim - 1)
    bumps = draw(st.lists(
        st.tuples(index, index, index, oracle_scalars, st.booleans()),
        min_size=1, max_size=3))
    return bumped_table(name, *bumps)


@st.composite
def perturbed_realizations(draw):
    name = draw(st.sampled_from(["so4", "gl3", "u2"]))
    algebra = named_algebra(name)
    n = len(algebra.matrices[0])
    m = draw(st.integers(0, algebra.dim - 1))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return perturbed_matrix(name, m, i, j, draw(oracle_scalars))


class TestSparseSetupOracles:
    """Structure constants and validation from the nonzero matrix entries
    against the dense elimination and the full dim^3 scan: the same items
    in the same order, the same report and the same errors."""

    @pytest.mark.parametrize("name", BUILTINS_UP_TO_16)
    def test_structure_items_in_order(self, name):
        mats = named_algebra(name).matrices
        got = structure_from_matrices(mats)
        assert list(got.items()) == list(dense_structure_from_matrices(mats).items())

    @pytest.mark.parametrize("mats, message", [
        ([elementary(2, 0, 0), elementary(2, 0, 0, 2)], "linearly dependent"),
        ([elementary(2, 0, 1), elementary(2, 1, 0)], "outside the span"),
        # dependence is reported before any commutator is expressed
        ([elementary(2, 0, 1), elementary(2, 1, 0), elementary(2, 0, 1, -3)],
         "linearly dependent"),
    ], ids=["dependent", "outside-span", "both"])
    def test_contract_errors(self, mats, message):
        for build in (structure_from_matrices, dense_structure_from_matrices):
            with pytest.raises(ContractError, match=message):
                build(mats)

    @pytest.mark.parametrize("name", ["so4", "so6", "gl3", "u3", "su2", "abelian3"])
    def test_builtin_reports(self, name):
        algebra = named_algebra(name)
        assert validate(algebra) == dense_validate(algebra)

    @given(corrupted_tables())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_tables(self, algebra):
        assert validate(algebra) == dense_validate(algebra)

    @given(perturbed_realizations())
    @settings(max_examples=40, deadline=None)
    def test_perturbed_matrix(self, algebra):
        assert validate(algebra) == dense_validate(algebra)

    @pytest.mark.parametrize("algebra", [
        bumped_table("so4", (0, 1, 2, Scalar(1), True)),
        bumped_table("gl3", (4, 0, 1, Scalar(1), True)),
        bumped_table("u2", (1, 2, 3, Scalar(1), True)),
        bumped_table("so4", (3, 2, 5, Scalar(0, 1), False)),
        perturbed_matrix("so4", 2, 0, 3, Scalar(1)),
    ], ids=["so4", "gl3", "u2", "so4-one-sided", "so4-matrix"])
    def test_pinned_failures(self, algebra):
        report = validate(algebra)
        assert not report.passed
        assert report == dense_validate(algebra)

    def test_jacobi_scan_runs_once(self, monkeypatch):
        # validate and the ad-invariance gate read one cached verdict: gl3's
        # realization decides it with no scan, and a table without matrices
        # is scanned once
        calls = []
        scan = lie._jacobi_witness

        def spy(algebra):
            calls.append(algebra)
            return scan(algebra)

        monkeypatch.setattr(lie, "_jacobi_witness", spy)
        gl3, so3 = named_algebra("gl3"), cyclic_so3()
        bare = LieAlgebra(3, so3.labels, so3.structure)
        # the bare table's trace form is read off the realized one
        for algebra, realized, scans in ((gl3, gl3, []), (bare, so3, [bare])):
            P = InvariantPolynomial(algebra, 2, symmetrized_trace(realized, 2).values)
            assert validate(algebra).passed
            assert P.ad_invariance_witness() is None
            assert validate(algebra).passed
            assert calls == scans


ALGEBRA_FILES = json.loads((Path(__file__).parent / "algebra_files.json").read_text())


class TestRealizedJacobi:
    """The Jacobi verdict that a verified realization by independent
    matrices gives without a scan, against the dense validation and the
    scan itself, on the tables it decides and the ones it leaves to the
    scan."""

    @staticmethod
    def assert_scan_verdict(algebra):
        assert validate(algebra) == dense_validate(algebra)
        jacobi = [f for f in algebra._bracket_failures if f.invariant == "jacobi"]
        assert jacobi == [f for f in [lie._jacobi_witness(algebra)] if f is not None]

    @pytest.mark.parametrize("name", [
        "so2", "so3", "so4", "so5", "so6", "gl1", "gl2", "gl3", "gl4",
        "u1", "u2", "u3", "u4", "su2", "abelian1", "abelian2", "abelian3"])
    def test_builtins(self, name):
        self.assert_scan_verdict(named_algebra(name))

    @pytest.mark.parametrize("label", ALGEBRA_FILES)
    def test_algebra_files(self, label):
        self.assert_scan_verdict(algebra_from_dict(ALGEBRA_FILES[label]))

    @pytest.mark.parametrize("name", ["so4", "gl2", "u2", "su2"])
    def test_single_bumps(self, name):
        # each c[a,b,c] raised by 1, as --corrupt structure=a,b,c does: the
        # realization is kept, so it no longer matches and the scan runs
        dim = named_algebra(name).dim
        for a, b, c in itertools.product(range(dim), repeat=3):
            self.assert_scan_verdict(bumped_table(name, (a, b, c, Scalar(1), True)))


class TestGeneratedSpan:
    """The span the ad-invariance gate and ``d_S`` grow, closed under the
    brackets with its directions only, against the closure under the
    brackets of every pair of vectors (``generated_dimension``)."""

    @staticmethod
    def assert_span(algebra, directions):
        span, walked = lie._GeneratedSpan(algebra), []
        for x in directions:
            if x not in span:
                span.add(x)
                walked.append(x)
            assert len(span.pivots) == generated_dimension(algebra, walked)
        dim = len(span.pivots)
        for y in range(algebra.dim):
            assert (y in span) == (generated_dimension(algebra, walked + [y]) == dim)

    @pytest.mark.parametrize("name", ["so4", "gl2", "u2", "su2"])
    def test_every_direction_set(self, name):
        algebra = named_algebra(name)
        for size in range(algebra.dim + 1):
            for directions in itertools.combinations(range(algebra.dim), size):
                self.assert_span(algebra, directions)

    @pytest.mark.parametrize("name", ["so5", "gl3", "u3"])
    def test_random_direction_sets(self, name):
        algebra, rng = named_algebra(name), random.Random(name)
        for _ in range(20):
            self.assert_span(algebra, rng.sample(range(algebra.dim), rng.randint(1, 4)))


def outcome(f, *args):
    """f(*args), or the text of the ContractError it raises."""
    try:
        return f(*args)
    except ContractError as exc:
        return f"ContractError: {exc}"


@st.composite
def powered_tables(draw):
    """(name, bumps) for a built-in table with constants bumped, some by
    imaginary values and some by values at a (2pi) power, which a table
    refuses."""
    name = draw(st.sampled_from(["so4", "gl3", "u2"]))
    index = st.integers(0, named_algebra(name).dim - 1)
    value = st.sampled_from([Scalar(0, 1), Scalar(1, two_pi=1), Scalar(Fraction(1, 2), -1, 1),
                             Scalar(-2, two_pi=2)])
    return name, draw(st.lists(st.tuples(index, index, index, value, st.booleans()),
                               min_size=1, max_size=3))


def assert_setup_oracles(algebra, traces=(1, 2)):
    """The Jacobi scan, the trace walks and the gate's residues against
    their visit-by-visit and Scalar versions: equal results, or the same
    ContractError."""
    assert outcome(lie._jacobi_witness, algebra) == outcome(jacobi_witness_by_triples, algebra)
    tensors = [symmetrized_trace(algebra, k) for k in traces]
    for k, P in zip(traces, tensors):
        want = symmetrized_trace_by_scalar_walks(algebra, k)
        assert list(P.values.items()) == list(want.values.items())
    if algebra.meta.get("family") == "so" and algebra.meta["n"] % 2 == 0:
        tensors.append(pfaffian(algebra))
    for P in tensors:
        for x in range(algebra.dim):
            assert (outcome(_direction_residues, P, x)
                    == outcome(direction_residues_by_scalars, P, x))


class TestIntegerSetupOracles:
    """The set-up on integer numerators against the scans it replaced."""

    @pytest.mark.parametrize("name", [
        "so3", "so4", "so5", "so6", "so7", "so8", "so9", "so10",
        "gl1", "gl2", "gl3", "gl4", "u1", "u2", "u3", "u4", "su2", "abelian3"])
    def test_builtins(self, name):
        algebra = named_algebra(name)
        assert lie._jacobi_witness(algebra) is None
        assert jacobi_witness_by_triples(algebra) is None
        if algebra.dim <= 16:
            assert_setup_oracles(algebra)

    @given(corrupted_tables())
    @settings(max_examples=100, deadline=None)
    def test_corrupted_tables(self, algebra):
        assert_setup_oracles(algebra)

    @given(perturbed_realizations())
    @settings(max_examples=40, deadline=None)
    def test_perturbed_realizations(self, algebra):
        assert_setup_oracles(algebra, traces=(1, 2, 3))

    @given(powered_tables())
    @settings(max_examples=100, deadline=None)
    def test_imaginary_and_power_bumps(self, case):
        # a table with a powered constant is refused; one that is kept,
        # where powered bumps cancelled, holds no power
        name, bumps = case
        try:
            algebra = bumped_table(name, *bumps)
        except ContractError as exc:
            assert "(2pi) power" in str(exc)
            assert any(value.two_pi for _, _, _, value, _ in bumps)
            return
        assert not any(value.two_pi for value in algebra.structure.values())
        assert_setup_oracles(algebra)

    @pytest.mark.parametrize("bumps, error", [
        # the first powered constant of the bumps is refused
        (((2, 0, 5, Scalar(-1, two_pi=2), True), (4, 2, 1, Scalar(1, two_pi=1), True)),
         "structure constant (2, 0, 5) carries no (2pi) power"),
        (((0, 1, 4, Scalar(1, two_pi=1), True), (0, 3, 2, Scalar(1), True)),
         "structure constant (0, 1, 4) carries no (2pi) power"),
    ], ids=["two-vs-one", "zero-vs-one"])
    def test_pinned_power_bumps(self, bumps, error):
        with pytest.raises(ContractError) as refused:
            bumped_table("so4", *bumps)
        assert str(refused.value).startswith(error)
        # the same bumps without their powers break the Jacobi identity
        algebra = bumped_table("so4", *[(a, b, c, Scalar(v.re, v.im), mirror)
                                        for a, b, c, v, mirror in bumps])
        got = outcome(lie._jacobi_witness, algebra)
        assert got is not None
        assert got == outcome(jacobi_witness_by_triples, algebra)
        assert_setup_oracles(algebra)

    def test_pinned_residue_power_clash(self):
        # a table refuses a constant at (2pi)^-1, so a residue at power 0
        # can meet a term at another power only through the tensor: values
        # at two powers are refused by the gate
        with pytest.raises(ContractError, match="carries no \\(2pi\\) power"):
            bumped_table("u2", (2, 1, 1, Scalar(1, two_pi=1), False),
                         (1, 2, 1, Scalar(0, 1), True))
        algebra = bumped_table("u2", (1, 2, 1, Scalar(0, 1), True))
        P = symmetrized_trace(algebra, 2)
        lifted = InvariantPolynomial(algebra, 2, {
            key: Scalar(v.re, v.im, int(key == (1, 1))) for key, v in P.values.items()})
        got = outcome(_direction_residues, lifted, 1)
        assert got.endswith("powers: 0 vs 1")

    def test_realization_view_is_built_on_demand(self):
        algebra = named_algebra("su2")
        assert "matrices" not in vars(algebra)
        assert validate(algebra).passed and algebra.has_imaginary_data()
        symmetrized_trace(algebra, 2).ad_invariance_witness()
        assert "matrices" not in vars(algebra)
        half_i = Scalar(0, Fraction(1, 2))
        assert algebra.matrices[2] == ((-half_i, Scalar(0)), (Scalar(0), half_i))
        rebuilt = LieAlgebra(3, algebra.labels, algebra.structure, algebra.matrices)
        assert rebuilt.matrices == algebra.matrices and validate(rebuilt).passed
        assert structure_from_matrices(rebuilt._realization) == algebra.structure

    def test_one_power_per_realization(self):
        # matrix entries carry no (2pi) power: neither one power for all of
        # them nor two powers among them
        algebra = named_algebra("so3")
        mats = [[list(row) for row in M] for M in algebra.matrices]
        scaled = [[[v * Scalar(1, two_pi=1) for v in row] for row in M] for M in mats]
        with pytest.raises(ContractError, match="carry no \\(2pi\\) power"):
            structure_from_matrices(scaled)
        mats[0][1][2] = Scalar(0, two_pi=1) + Scalar(3, two_pi=1)
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            LieAlgebra(3, algebra.labels, algebra.structure, mats)


class TestSplits:
    def test_so4_so3_split_valid(self):
        algebra = so_algebra(4)
        split = so_subalgebra_split(algebra, 3)
        assert split.h == (0, 1, 3)
        assert split.p == (2, 4, 5)
        assert validate_split(algebra, split).passed

    @pytest.mark.parametrize("algebra,split_fn", [
        (so_algebra(6), lambda a: so_subalgebra_split(a, 5)),
        (gl_algebra(3), lambda a: gl_subalgebra_split(a, 2)),
        (su2_algebra(), su2_diagonal_split),
        (so_algebra(3), trivial_split),
        (abelian_algebra(2), lambda a: ReductiveSplit.from_h(a.dim, (0,))),
    ])
    def test_shipped_splits_valid(self, algebra, split_fn):
        assert validate_split(algebra, split_fn(algebra)).passed

    def test_subalgebra_violation(self):
        algebra = so_algebra(4)
        # pairs (0,1) and (0,2) do not close: their bracket hits (1,2)
        split = ReductiveSplit.from_h(algebra.dim, (0, 1))
        report = validate_split(algebra, split)
        assert not report.passed
        assert report.first().invariant == "subalgebra"

    def test_partition_violation(self):
        algebra = so_algebra(3)
        report = validate_split(algebra, ReductiveSplit((0,), (0, 1, 2)))
        assert not report.passed
        assert report.first().invariant == "partition"

    def test_from_h_rejects_bad_indices(self):
        with pytest.raises(ContractError):
            ReductiveSplit.from_h(3, (5,))

    @pytest.mark.parametrize("build, split_fn, n", [
        (so_algebra, so_subalgebra_split, 4), (so_algebra, so_subalgebra_split, 2),
        (gl_algebra, gl_subalgebra_split, 2), (gl_algebra, gl_subalgebra_split, 1)])
    def test_subalgebra_larger_than_algebra_rejected(self, build, split_fn, n):
        algebra = build(n)
        with pytest.raises(ContractError, match="larger than"):
            split_fn(algebra, n + 1)
        with pytest.raises(ContractError, match="larger than"):
            named_split(algebra, f"{algebra.name[:2]}{n + 2}")

    @pytest.mark.parametrize("build, split_fn", [
        (so_algebra, so_subalgebra_split), (gl_algebra, gl_subalgebra_split)])
    def test_subalgebra_of_full_size_is_everything(self, build, split_fn):
        algebra = build(3)
        split = split_fn(algebra, 3)
        assert split.h == tuple(range(algebra.dim)) and split.p == ()
        assert validate_split(algebra, split).passed


# ---------------------------------------------------------------------------
# Brackets of Lie-valued forms
# ---------------------------------------------------------------------------

class TestBracket:
    def test_abelian_bracket_vanishes(self):
        algebra = abelian_algebra(3)
        ctx = form_context(3)
        rng = random.Random(1)
        x = random_lvf(algebra, ctx, rng, 1)
        y = random_lvf(algebra, ctx, rng, 1)
        assert bracket(x, y).is_zero

    def test_so3_single_component_matches_matrix_oracle(self):
        algebra = cyclic_so3()
        ctx = form_context(3, n_even=0)
        u, v = ctx.gen(0), ctx.gen(1)
        zero = ctx.zero()
        x = LieValuedForm(algebra, ctx, (u, zero, zero), 1)
        y = LieValuedForm(algebra, ctx, (zero, v, zero), 1)
        out = bracket(x, y)
        # oracle: [L1, L2] expands to exactly c[a,0,1] L_a
        comm = mat_commutator(algebra.matrices[0], algebra.matrices[1])
        for a in range(3):
            expected = comm  # L3, i.e. coefficient 1 at a == 2
            coeff = Scalar(1) if a == 2 else Scalar(0)
            assert out.components[a] == (u * v).scale(coeff)
        assert mat_is_zero(mat_sub(comm, algebra.matrices[2]))

    def test_graded_antisymmetry_100_pairs(self):
        algebra = so_algebra(4)
        ctx = form_context(algebra.dim, n_even=algebra.dim)
        rng = random.Random(99)
        for _ in range(100):
            dx = rng.randint(1, 2)
            dy = rng.randint(1, 2)
            x = random_lvf(algebra, ctx, rng, dx)
            y = random_lvf(algebra, ctx, rng, dy)
            lhs = bracket(x, y)
            rhs = bracket(y, x).scale(Scalar(-((-1) ** (dx * dy))))
            assert lhs == rhs

    def test_bilinearity(self):
        algebra = so_algebra(4)
        ctx = form_context(algebra.dim)
        rng = random.Random(3)
        x = random_lvf(algebra, ctx, rng, 1)
        y = random_lvf(algebra, ctx, rng, 1)
        z = random_lvf(algebra, ctx, rng, 1)
        s = Scalar(Fraction(3, 7))
        assert bracket(x + y.scale(s), z) == bracket(x, z) + bracket(y, z).scale(s)

    def test_graded_jacobi_degree_one(self):
        algebra = so_algebra(4)
        ctx = form_context(algebra.dim)
        rng = random.Random(17)
        for _ in range(20):
            x = random_lvf(algebra, ctx, rng, 1)
            y = random_lvf(algebra, ctx, rng, 1)
            z = random_lvf(algebra, ctx, rng, 1)
            total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                     + bracket(z, bracket(x, y)))
            assert total.is_zero

    def test_algebra_mismatch(self):
        a1, a2 = so_algebra(3), so_algebra(3)
        ctx = form_context(3)
        x = LieValuedForm(a1, ctx, (ctx.gen(0), ctx.zero(), ctx.zero()), 1)
        y = LieValuedForm(a2, ctx, (ctx.gen(1), ctx.zero(), ctx.zero()), 1)
        with pytest.raises(ContextError):
            bracket(x, y)

    def test_split_closure_properties(self):
        algebra = so_algebra(4)
        split = so_subalgebra_split(algebra, 3)
        ctx = form_context(algebra.dim)
        rng = random.Random(23)
        for _ in range(20):
            x = random_lvf(algebra, ctx, rng, 1)
            y = random_lvf(algebra, ctx, rng, 1)
            xh, xp = project(split, x)
            yh, yp = project(split, y)
            assert set(bracket(xh, yh).support()) <= set(split.h)
            assert set(bracket(xh, yp).support()) <= set(split.p)

    @pytest.mark.parametrize("n", [4, 6])
    def test_phi_phi_bracket_lands_in_h(self, n):
        # symmetric pair so(n) > so(n-1): [p, p] <= h
        algebra = so_algebra(n)
        split = so_subalgebra_split(algebra, n - 1)
        ctx = form_context(algebra.dim)
        comps = [ctx.gen(a) if a in split.p else ctx.zero()
                 for a in range(algebra.dim)]
        phi = LieValuedForm(algebra, ctx, comps, 1)
        assert set(bracket(phi, phi).support()) <= set(split.h)


def corrupted(algebra, a, b, c, bump):
    """The algebra with c[a,b,c] raised by ``bump`` and c[a,c,b] set to its
    negative, as ``--corrupt structure=a,b,c`` does with a bump of 1."""
    structure = dict(algebra.structure)
    bumped = structure.get((a, b, c), Scalar(0)) + bump
    structure[(a, b, c)] = bumped
    structure[(a, c, b)] = -bumped
    return LieAlgebra(algebra.dim, algebra.labels, structure, algebra.matrices)


def sparse_lvf(algebra, ctx, rng, degree, power):
    """A form with about half of its components zero, Gaussian coefficients,
    t-degrees up to 2 and every coefficient at the (2pi) power ``power``."""
    comps = []
    for _ in range(algebra.dim):
        if rng.random() < 0.5:
            comps.append(ctx.zero())
            continue
        x = random_homogeneous(ctx, rng, degree, terms=rng.randint(1, 4), max_t=2,
                               gaussian=rng.random() < 0.5)
        comps.append(x.scale(Scalar(1, two_pi=power)))
    return LieValuedForm(algebra, ctx, comps, degree)


class TestBracketOracle:
    """``bracket`` against ``helpers.tuple_bracket``: the same components,
    terms and insertion order, on sparse forms over built-in algebras and
    over tables with one corrupted constant, real or imaginary."""

    # su2-hermitian: imaginary structure constants on Gaussian forms
    @given(st.sampled_from(["so4", "gl3", "u2", "u3", "su2-hermitian"]),
           st.randoms(use_true_random=False),
           st.booleans(), st.sampled_from([Scalar(1), Scalar(0, 1)]),
           st.integers(1, 2), st.integers(1, 2), st.integers(-1, 2), st.integers(-1, 2))
    @settings(max_examples=80, deadline=None)
    def test_matches_tuple_bracket(self, name, rng, corrupt, bump, dx, dy, px, py):
        algebra = hermitian_su2() if name == "su2-hermitian" else named_algebra(name)
        ctx = form_context(algebra.dim, n_even=algebra.dim)
        x = sparse_lvf(algebra, ctx, rng, dx, px)
        y = sparse_lvf(algebra, ctx, rng, dy, py)
        if corrupt and x.support() and y.support():
            # a constant the forms reach
            b, c = rng.choice(x.support()), rng.choice(y.support())
            algebra = corrupted(algebra, rng.randrange(algebra.dim), b, c, bump)
            x, y = (LieValuedForm(algebra, ctx, f.components, f.degree) for f in (x, y))
        got, want = bracket(x, y), tuple_bracket(x, y)
        assert got.degree == want.degree
        for g, w in zip(got.components, want.components):
            assert list(tuple_terms(g).items()) == list(tuple_terms(w).items())

    def test_constants_read_once(self, monkeypatch):
        # two brackets on one algebra read one cached table of constants
        calls = []
        common = lie._common

        def spy(scalars):
            calls.append(1)
            return common(scalars)

        algebra = so_algebra(4)
        ctx = form_context(algebra.dim)
        rng = random.Random(5)
        x, y = random_lvf(algebra, ctx, rng, 1), random_lvf(algebra, ctx, rng, 1)
        monkeypatch.setattr(lie, "_common", spy)
        bracket(x, x)
        table = algebra._constants
        bracket(x, y)
        assert algebra._constants is table
        assert calls == [1]


class TestProject:
    def test_universal_connection_projection(self):
        algebra = so_algebra(4)
        split = so_subalgebra_split(algebra, 3)
        ctx = form_context(algebra.dim)
        omega = LieValuedForm(algebra, ctx,
                              tuple(ctx.gen(a) for a in range(algebra.dim)), 1)
        sub, tang = project(split, omega)
        assert sub.support() == split.h
        assert tang.support() == split.p
        assert sub + tang == omega

    def test_h_valued_is_fixed(self):
        algebra = so_algebra(4)
        split = so_subalgebra_split(algebra, 3)
        ctx = form_context(algebra.dim)
        comps = [ctx.gen(a) if a in split.h else ctx.zero()
                 for a in range(algebra.dim)]
        x = LieValuedForm(algebra, ctx, comps, 1)
        h_part, p_part = project(split, x)
        assert h_part == x
        assert p_part.is_zero

    def test_projections_complementary_random(self):
        algebra = so_algebra(5)
        split = so_subalgebra_split(algebra, 4)
        ctx = form_context(algebra.dim, n_even=2)
        rng = random.Random(31)
        for _ in range(20):
            x = random_lvf(algebra, ctx, rng, 2)
            h_part, p_part = project(split, x)
            assert h_part + p_part == x


# ---------------------------------------------------------------------------
# Named lookup and file format
# ---------------------------------------------------------------------------

class TestNamedAndFiles:
    def test_named_algebra(self):
        assert named_algebra("so4").dim == 6
        assert named_algebra("gl3").dim == 9
        assert named_algebra("su2").dim == 3
        assert named_algebra("abelian2").dim == 2
        with pytest.raises(ContractError):
            named_algebra("sp4")

    def test_named_split(self):
        algebra = so_algebra(4)
        assert named_split(algebra, "so3").h == (0, 1, 3)
        assert named_split(algebra, "none").h == ()
        assert named_split(algebra, "0,1,3").h == (0, 1, 3)
        assert named_split(su2_algebra(), "u1").h == (2,)
        with pytest.raises(ContractError):
            named_split(algebra, "what")

    def test_algebra_from_dict_round_trip(self):
        data = {
            "dim": 3,
            "labels": ["L1", "L2", "L3"],
            "entries": [[2, 0, 1, "1"], [0, 1, 2, "1"], [1, 2, 0, "1"]],
        }
        algebra = algebra_from_dict(data)
        assert validate(algebra).passed
        assert algebra.c(2, 0, 1) == Scalar(1)
        assert algebra.c(2, 1, 0) == Scalar(-1)  # antisymmetric completion

    def test_algebra_from_dict_rejects_non_antisymmetric(self):
        data = {"dim": 2, "entries": [[0, 0, 1, "1"], [0, 1, 0, "1"]]}
        with pytest.raises(ContractError):
            algebra_from_dict(data)

    def test_algebra_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ContractError):
            algebra_from_dict({"dim": 1, "entries": [], "weird": 1})

    def test_algebra_from_dict_rejects_bad_value(self):
        with pytest.raises(ContractError):
            algebra_from_dict({"dim": 2, "entries": [[0, 0, 1, "x"]]})

    def test_matrices_must_match_the_basis(self):
        algebra = so_algebra(3)
        with pytest.raises(ContractError, match="one matrix per basis"):
            LieAlgebra(3, algebra.labels, algebra.structure, algebra.matrices[:2])
        ragged = [algebra.matrices[0], algebra.matrices[1], [[Scalar(0)]]]
        with pytest.raises(ContractError, match="square"):
            LieAlgebra(3, algebra.labels, algebra.structure, ragged)

    def test_gaussian_detection(self):
        assert su2_algebra().has_imaginary_data()
        assert u_algebra(2).has_imaginary_data()
        assert not so_algebra(4).has_imaginary_data()
        assert not gl_algebra(3).has_imaginary_data()
