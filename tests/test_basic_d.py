"""d on h-basic forms: ``UniversalSetup.d_S`` and ``d_basic`` against
Cartan's formula with the full d, the paths the certificates take, and the
preconditions under which the restricted derivation alone would be wrong."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cut_differential,
    generated_dimension,
    hermitian_su2,
    jacobi_broken_so4,
    lie_derivative,
    literal_basicness,
    random_homogeneous,
    unclosed_so4,
    without_factors,
)
from transgress.algebra import Scalar
from transgress.invariants import invariant_from_dict, symmetrized_trace
from transgress.lie import (
    ReductiveSplit,
    named_algebra,
    named_split,
    so_algebra,
    so_subalgebra_split,
)
from transgress.transgression import (
    TransgressionResult,
    coefficient_A,
    derivative_identity_check,
    tp_integral,
    tp_johnson,
    verify_transgression,
)
from transgress.weil import UniversalSetup

ROOT = Path(__file__).resolve().parent.parent


def has_h_factor(setup, x) -> bool:
    return any(m.odd_mask >> a & 1 for m in x.terms for a in setup.split.h)


def kept_directions(setup) -> list:
    """S read off d_S: the a in h whose w[a] some image of d_S has."""
    masks = [m.odd_mask for img in setup.d_S.images.values() for m in img.terms]
    return [a for a in setup.split.h if any(mask >> a & 1 for mask in masks)]


# ---------------------------------------------------------------------------
# The restricted derivation and Cartan's formula
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["so6/so5", "so5/so3", "gl3/gl2", "su2-hermitian"])
def case(request, so6_setup, pf_so6, gl3_setup, tr2_gl3):
    """(set-up, an ad-invariant polynomial) over the four oracle pairs; so5/so3
    is not symmetric ([p, p] meets p), and the Hermitian su2 has imaginary
    constants."""
    if request.param == "so6/so5":
        return so6_setup, pf_so6
    if request.param == "gl3/gl2":
        return gl3_setup, tr2_gl3
    if request.param == "so5/so3":
        algebra = so_algebra(5)
        setup = UniversalSetup(algebra, so_subalgebra_split(algebra, 3))
    else:
        algebra = hermitian_su2()
        setup = UniversalSetup(algebra, ReductiveSplit.from_h(3, (2,)))
    return setup, symmetrized_trace(algebra, 2)


def h_free(setup, P, rng, weights, noise: int):
    """weights[0] times the integrand plus weights[1] times P(F) - P(F_h),
    both h-basic, plus ``noise`` random terms with no h-connection factor,
    at P's (2pi) power."""
    y = (setup.transgression_integrand(P).scale(weights[0])
         + setup.curvature_difference(P).scale(weights[1]))
    if noise:
        extra = random_homogeneous(setup.context, rng, rng.choice([1, 2, 3, 4]),
                                   terms=noise, max_t=1, gaussian=rng.random() < 0.5)
        y = y + without_factors(extra, setup.split.h).scale(Scalar(1, two_pi=P.prefactor.two_pi))
    return y


class TestRestrictedDerivation:
    def test_images_are_d_less_the_factors_outside_S(self, case):
        # S is read off d_S: the h-directions whose w[a] it keeps.  Every
        # image of d_S is d's image with the terms with a factor in h - S
        # dropped, and S generates h.
        setup, _ = case
        h = setup.split.h
        d_S = setup.d_S
        S = kept_directions(setup)
        dropped = [a for a in h if a not in S]
        for g, img in setup.d.images.items():
            kept = without_factors(img, dropped)
            got = d_S.images.get(g, setup.context.zero())
            assert dict(got.terms) == dict(kept.terms), g
        assert generated_dimension(setup.algebra, S) == len(h)
        assert (d_S is setup.d) == (not dropped)

    @pytest.mark.parametrize("pair, S, kept, full", [
        (("so8", "so7"), 6, 232, 532), (("u2", "0,1"), 2, 22, 22),
        (("su2", "u1"), 1, 12, 12)])
    def test_sizes(self, pair, S, kept, full):
        algebra = named_algebra(pair[0])
        setup = UniversalSetup(algebra, named_split(algebra, pair[1]))
        assert "d_S" not in vars(setup)  # built on first use only
        d_S = setup.d_S
        count = lambda d: sum(img.term_count for img in d.images.values())  # noqa: E731
        assert (count(d_S), count(setup.d)) == (kept, full)
        assert len(kept_directions(setup)) == S
        assert (d_S is setup.d) == (S == len(setup.split.h))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           weights=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           noise=st.integers(0, 3))
    @example(seed=0, weights=(1, 1), noise=0)
    @example(seed=1, weights=(0, 0), noise=2)
    def test_cartan_oracle(self, case, seed, weights, noise):
        setup, P = case
        y = h_free(setup, P, random.Random(seed), weights, noise)
        assert not has_h_factor(setup, y)
        # Cartan: d(y) = d'(y) + sum over a in h of w[a] L_a(y)
        d_y = setup.d(y)
        moved = [lie_derivative(setup, a)(y) for a in setup.split.h]
        total = cut_differential(setup)(y)
        for a, L_a in zip(setup.split.h, moved):
            total = total + setup.context.gen(a) * L_a
        assert total == d_y
        out = setup.d_basic(y)
        invariant = all(L_a.is_zero for L_a in moved)
        assert (out is not None) == invariant
        if out is not None:
            assert out == d_y

    def test_refuses_an_h_connection_factor(self, case):
        # a basic form times w[a], a in h, is horizontal nowhere
        setup, P = case
        y = setup.context.gen(setup.split.h[0]) * setup.transgression_integrand(P)
        assert not y.is_zero
        assert setup.d_basic(y) is None


# ---------------------------------------------------------------------------
# The path each certificate takes
# ---------------------------------------------------------------------------

def counted_checks(monkeypatch, setup, P, result):
    """verify_transgression and derivative_identity_check with every call of
    ``setup.d`` counted; what they read is built first, with the full d.  ``d_S`` is built before the count too, so where
    S is all of h and ``d_S`` is ``d`` itself, the basic path's calls are not
    counted: the count is that of the full path."""
    _ = (setup.d_S, setup.deformed_curvature, setup.curvature_difference(P),
         setup.transgression_integrand(P))
    calls = []
    d = setup.d

    def counted_d(x):
        calls.append("d")
        return d(x)

    monkeypatch.setattr(setup, "d", counted_d)
    checks = verify_transgression(result, setup, P)
    identity = derivative_identity_check(setup, P)
    monkeypatch.undo()
    return calls, checks, identity


def literal_checks(setup, P, form):
    """[(name, passed, witness)] of the transgression check with the full d
    and of the literal basicness loops."""
    diff = setup.d(form) - setup.curvature_difference(P)
    return ([("transgression", diff.is_zero,
              "" if diff.is_zero else diff.leading_term_str())]
            + literal_basicness(setup, form))


def verdicts(checks):
    return [(c.name, c.passed, c.witness) for c in checks.values()]


class TestPaths:
    @pytest.mark.parametrize("label", ["so6/so5", "gl3/gl2:trace^3", "su2/u1"])
    def test_passing_runs_skip_the_full_d(self, request, monkeypatch, label):
        setup, P = {
            "so6/so5": ("so6_setup", "pf_so6"),
            "gl3/gl2:trace^3": ("gl3_setup", "tr3_gl3"),
            "su2/u1": ("su2_setup", "tr2_su2"),
        }[label]
        setup, P = request.getfixturevalue(setup), request.getfixturevalue(P)
        result = tp_integral(setup, P)
        calls, checks, identity = counted_checks(monkeypatch, setup, P, result)
        assert calls == []
        assert all(checks.values()) and identity.passed
        assert verdicts(checks) == literal_checks(setup, P, result.form)

    def test_noninvariant_tensor_file_has_zero_forms(self, monkeypatch, gl3_setup):
        # the pinned non-invariant tensor's one value sits at (0, 0), in h,
        # so its integrand and TP are zero: basic, with the failures of the
        # transgression and derivative identities the full d also finds
        data = json.loads((ROOT / "perfbench" / "noninvariant_gl3.json").read_text())
        P = invariant_from_dict(gl3_setup.algebra, data)
        result = tp_integral(gl3_setup, P)
        assert result.form.is_zero and gl3_setup.transgression_integrand(P).is_zero
        calls, checks, identity = counted_checks(monkeypatch, gl3_setup, P, result)
        assert calls == []
        assert verdicts(checks) == literal_checks(gl3_setup, P, result.form)
        assert not checks["transgression"].passed and not identity.passed

    def test_noninvariant_tensor_takes_the_full_path(self, monkeypatch, gl3_setup):
        # a value at (2, 2), in p, gives a TP that is not h-invariant
        P = invariant_from_dict(gl3_setup.algebra, {"degree": 2, "values": [[[2, 2], "1"]]})
        result = tp_integral(gl3_setup, P)
        assert gl3_setup.d_basic(gl3_setup.transgression_integrand(P)) is None
        calls, checks, identity = counted_checks(monkeypatch, gl3_setup, P, result)
        assert calls.count("d") == 2  # d(TP), then d(integrand)
        assert verdicts(checks) == literal_checks(gl3_setup, P, result.form)
        assert not checks["invariance"].passed and not identity.passed

    def test_corrupted_coefficient_is_basic_and_keeps_its_witness(
            self, monkeypatch, so6_setup, pf_so6):
        # every slot pattern of the johnson sum is h-basic, so a wrong A_00
        # (as --corrupt aij=0,0) is too: its failure is the transgression
        # check's, found on the basic path with the full d's witness
        def corrupted(k, i, j):
            return coefficient_A(k, i, j) + (1 if (i, j) == (0, 0) else 0)

        result = tp_johnson(so6_setup, pf_so6, coefficient_fn=corrupted)
        calls, checks, _ = counted_checks(monkeypatch, so6_setup, pf_so6, result)
        assert calls == []
        assert not checks["transgression"].passed
        assert verdicts(checks) == literal_checks(so6_setup, pf_so6, result.form)


# ---------------------------------------------------------------------------
# Preconditions: a Lie bracket, and h closed under it
# ---------------------------------------------------------------------------

class TestPreconditions:
    @pytest.mark.parametrize("build", [jacobi_broken_so4, unclosed_so4],
                             ids=["jacobi", "unclosed-h"])
    def test_full_path_where_the_shortcut_fails(self, build):
        setup, P, y = build()
        assert not has_h_factor(setup, y)
        # d_S alone finds no h-connection factor, yet d_S(y) is not d(y) or
        # y is not invariant: only the preconditions refuse it
        out = setup.d_S(y)
        assert not has_h_factor(setup, out)
        assert out != setup.d(y) or not literal_basicness(setup, y)[1][1]
        assert setup.d_basic(y) is None
        checks = verify_transgression(TransgressionResult(y, "integral", P), setup, P)
        assert verdicts(checks) == literal_checks(setup, P, y)
