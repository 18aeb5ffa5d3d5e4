import gc
import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    FractionScalar,
    from_tuple_mono,
    from_word,
    random_element_by_monomials,
    random_homogeneous,
    sort_word_with_sign,
    terms_add,
    terms_integrate,
    terms_neg,
    terms_scale,
    terms_sub,
    terms_substitute,
    terms_t_derivative,
    terms_times_t,
    to_tuple_mono,
    tuple_derivation_apply,
    tuple_mono_mul,
    tuple_product,
    tuple_terms,
)

from transgress.algebra import (
    HALF,
    ONE,
    ZERO,
    UNIT_MONO,
    Context,
    ContextError,
    ContractError,
    Derivation,
    Generator,
    GradedElement,
    Monomial,
    Scalar,
    integrate_unit_interval,
    mono_mul,
    permutation_sign,
    substitute_t,
    t_derivative,
    _aligned,
    _Frame,
    _element,
    _product,
)


def make_ctx(n_odd=4, n_even=3):
    gens = [Generator(i, 1, f"x{i}") for i in range(n_odd)]
    gens += [Generator(100 + i, 2, f"y{i}") for i in range(n_even)]
    return Context(gens)


def bubble_sign_oracle(word):
    """Sort a word by explicit adjacent transpositions, counting swaps."""
    items = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            if items[i] == items[i + 1]:
                return 0, None
            if items[i] > items[i + 1]:
                items[i], items[i + 1] = items[i + 1], items[i]
                sign = -sign
                changed = True
    return sign, tuple(items)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class TestScalar:
    def test_lowest_terms(self):
        s = Scalar(Fraction(2, 4))
        assert s.re == Fraction(1, 2) and s.re.denominator == 2

    def test_zero_normalizes_unit(self):
        assert Scalar(0, 0, two_pi=5) == ZERO

    def test_from_json_is_exact(self):
        assert Scalar.from_json("1/10") == Scalar(Fraction(1, 10))
        assert Scalar.from_json("1/2+i") == Scalar(Fraction(1, 2), 1)
        assert Scalar.from_json(-3) == Scalar(-3)
        for value in (0.1, 1.0, True, None, [1], {"re": 1}):
            with pytest.raises(ContractError):
                Scalar.from_json(value)

    def test_add_requires_matching_two_pi(self):
        a = Scalar(1, two_pi=1)
        b = Scalar(1, two_pi=2)
        with pytest.raises(ContractError):
            a + b
        assert a + ZERO == a
        assert ZERO + b == b

    def test_mul_adds_two_pi(self):
        a = Scalar(Fraction(1, 2), two_pi=1)
        b = Scalar(3, two_pi=2)
        assert (a * b) == Scalar(Fraction(3, 2), two_pi=3)

    def test_gaussian_product(self):
        i = Scalar(0, 1)
        assert i * i == Scalar(-1)
        assert (Scalar(1, 1) * Scalar(1, -1)) == Scalar(2)

    def test_inverse(self):
        s = Scalar(Fraction(3, 4), Fraction(-1, 2), two_pi=2)
        assert s * s.inverse() == ONE
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    @pytest.mark.parametrize("result, fields", [
        # a real product with a common factor
        (lambda: Scalar(Fraction(2, 3)) * Scalar(Fraction(3, 4), two_pi=1), (1, 0, 2, 1)),
        (lambda: Scalar(-6) * Scalar(Fraction(5, 4)), (-15, 0, 2, 0)),
        # a same-denominator sum to an integer, and to zero
        (lambda: Scalar(Fraction(1, 3), two_pi=2) + Scalar(Fraction(5, 3), two_pi=2),
         (2, 0, 1, 2)),
        (lambda: Scalar(Fraction(1, 6), Fraction(1, 2)) + Scalar(Fraction(5, 6), Fraction(1, 2)),
         (1, 1, 1, 0)),
        (lambda: Scalar(Fraction(1, 3), two_pi=1) + Scalar(Fraction(-1, 3), two_pi=1),
         (0, 0, 1, 0)),
        # a Gaussian times a real
        (lambda: Scalar(Fraction(1, 2), Fraction(1, 2), two_pi=1) * Scalar(Fraction(2, 3), two_pi=2),
         (1, 1, 3, 3)),
        (lambda: Scalar(4) * Scalar(Fraction(1, 2), Fraction(-3, 4)), (2, -3, 1, 0)),
        # the inverse of a negative real
        (lambda: Scalar(Fraction(-2, 3), two_pi=1).inverse(), (-3, 0, 2, -1)),
        (lambda: Scalar(-5).inverse(), (-1, 0, 5, 0)),
    ], ids=["real-mul", "real-mul-int", "sum-int", "sum-gaussian-int", "sum-zero",
            "gaussian-times-real", "real-times-gaussian", "inverse-neg", "inverse-neg-int"])
    def test_canonical_fields(self, result, fields):
        s = result()
        assert (s._re, s._im, s._den, s.two_pi) == fields

    def test_pow(self):
        s = Scalar(Fraction(-1, 2), two_pi=1)
        assert s ** 3 == Scalar(Fraction(-1, 8), two_pi=3)
        assert s ** 0 == ONE

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Scalar(3)),
            ("-1/2", Scalar(Fraction(-1, 2))),
            ("−1/2", Scalar(Fraction(-1, 2))),
            ("i", Scalar(0, 1)),
            ("-i", Scalar(0, -1)),
            ("3/4i", Scalar(0, Fraction(3, 4))),
            ("1/2+3/4i", Scalar(Fraction(1, 2), Fraction(3, 4))),
            ("2-i", Scalar(2, -1)),
        ],
    )
    def test_parse(self, text, expected):
        assert Scalar.parse(text) == expected

    def test_parse_rejects_garbage(self):
        for bad in ("", "1//2", "x", "1/0"):
            with pytest.raises(ContractError):
                Scalar.parse(bad)

    def test_render(self):
        assert Scalar(Fraction(-1, 2), two_pi=2).render() == "-1/2*(2pi)^-2"
        assert Scalar(0, 1).render() == "i"
        assert Scalar(1, 1).render() == "(1+i)"
        assert ZERO.render() == "0"


# ---------------------------------------------------------------------------
# Monomial signs and products
# ---------------------------------------------------------------------------

class TestScalarOracle:
    """The integer-numerator Scalar against the Fraction-pair Scalar it
    replaced (``helpers.FractionScalar``): every operation gives the same
    parts, the same unit power or the same exception."""

    parts = st.one_of(st.just(Fraction(0)),
                      st.fractions(-40, 40, max_denominator=36))
    triples = st.tuples(parts, parts, st.integers(0, 3))

    @staticmethod
    def outcome(fn, *args):
        """(parts, unit power) of fn(*args), or the exception type raised."""
        try:
            out = fn(*args)
        except (ContractError, ZeroDivisionError, TypeError) as exc:
            return type(exc)
        if isinstance(out, (Scalar, FractionScalar)):
            return (out.re, out.im, out.two_pi)
        return out

    @staticmethod
    def assert_canonical(s):
        assert s._den > 0 and gcd(s._re, s._im, s._den) == 1
        assert isinstance(s._re, int) and isinstance(s._im, int)
        if not s._re and not s._im:
            assert (s._den, s.two_pi) == (1, 0)

    @settings(max_examples=300, deadline=None)
    @given(triples, triples, st.integers(-3, 3))
    def test_operations_match_fraction_oracle(self, x, y, n):
        a, b = Scalar(*x), Scalar(*y)
        fa, fb = FractionScalar(*x), FractionScalar(*y)
        for s in (a, b):
            self.assert_canonical(s)
        assert (a.re, a.im, a.two_pi) == (fa.re, fa.im, fa.two_pi)
        binary = (operator.add, operator.sub, operator.mul, operator.truediv)
        for op in binary:
            want = self.outcome(op, fa, fb)
            assert self.outcome(op, a, b) == want
            if not isinstance(want, type):
                self.assert_canonical(op(a, b))
        for op in (operator.neg, lambda s: s.inverse(), lambda s: s ** n):
            want = self.outcome(op, fa)
            assert self.outcome(op, a) == want
            if not isinstance(want, type):
                self.assert_canonical(op(a))
        assert (a == b) == (fa == fb)
        assert hash(a) == hash(fa)
        assert a.render() == fa.render() and repr(a) == repr(fa)
        assert (a.is_zero, a.is_one, bool(a)) == (fa.is_zero, fa.is_one, bool(fa))

    @settings(max_examples=200, deadline=None)
    @given(triples, st.one_of(st.integers(-9, 9), parts))
    def test_plain_numbers_match_fraction_oracle(self, x, q):
        a, fa = Scalar(*x), FractionScalar(*x)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            assert self.outcome(op, a, q) == self.outcome(op, fa, q)
            assert self.outcome(op, q, a) == self.outcome(op, q, fa)
        assert (a == q) == (fa == q)
        assert (Scalar(q) == q) and hash(Scalar(q)) == hash(FractionScalar(q))
        assert hash(Scalar(q)) == hash(q)

    @settings(max_examples=200, deadline=None)
    @given(triples)
    def test_parse_and_render_match_fraction_oracle(self, x):
        re_, im, _ = x
        texts = [Scalar(re_, im).render(), f"{re_}+{im}i", f"{re_}-{im}i",
                 f"{im}i", f" {re_} ", f"{re_}i{im}", f"{re_}\u2212{im}i"]
        for text in texts:
            assert (self.outcome(Scalar.parse, text)
                    == self.outcome(FractionScalar.parse, text))

    @pytest.mark.parametrize("value", [
        "1/2+3/4i", "-i", "7", 5, -3, 0, True, 1.5, None, [1], "x"])
    def test_from_json_matches_fraction_oracle(self, value):
        assert (self.outcome(Scalar.from_json, value)
                == self.outcome(FractionScalar.from_json, value))

    @settings(max_examples=100, deadline=None)
    @given(triples, st.integers(0, 3))
    def test_zero_and_unit_rules(self, x, other_unit):
        re_, im, unit = x
        assert Scalar(0, 0, unit).two_pi == 0
        assert (Scalar(re_, im, unit) * ZERO).two_pi == 0
        a, b = Scalar(re_, im, unit), Scalar(1, 1, other_unit)
        fa, fb = FractionScalar(re_, im, unit), FractionScalar(1, 1, other_unit)
        assert self.outcome(operator.add, a, b) == self.outcome(operator.add, fa, fb)
        if a and unit != other_unit:
            with pytest.raises(ContractError):
                a + b


class TestProducts:
    def test_odd_anticommute(self):
        ctx = make_ctx()
        x, y = ctx.gen(0), ctx.gen(1)
        xy = x * y
        assert xy == from_word(ctx, [0, 1])
        assert y * x == -xy

    def test_odd_square_zero(self):
        ctx = make_ctx()
        x = ctx.gen(0)
        assert (x * x).is_zero

    def test_four_factor_sign_against_oracle(self):
        # ids ordered x < u < y < v; product (x y)(u v)
        ctx = make_ctx()
        x, u, y, v = 0, 1, 2, 3
        prod = from_word(ctx, [x, y]) * from_word(ctx, [u, v])
        sign, sorted_word = bubble_sign_oracle([x, y, u, v])
        assert sorted_word == (0, 1, 2, 3)
        [(mono, coeff)] = prod.terms.items()
        assert mono.odd == sorted_word
        assert coeff == Scalar(sign)

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_from_word_matches_bubble_oracle(self, word):
        ctx = make_ctx(n_odd=6)
        elem = from_word(ctx, word)
        sign, sorted_word = bubble_sign_oracle(word)
        if sign == 0:
            assert elem.is_zero
        else:
            [(mono, coeff)] = elem.terms.items()
            assert mono.odd == sorted_word
            assert coeff == Scalar(sign)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=100, deadline=None)
    def test_permutation_sign_matches_bubble_oracle(self, perm):
        assert permutation_sign(perm) == bubble_sign_oracle(perm)[0]

    def test_sort_word_with_sign_duplicate(self):
        assert sort_word_with_sign([2, 1, 2]) == (0, None)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_graded_commutativity(self, seed):
        rng = random.Random(seed)
        ctx = make_ctx(6, 4)
        da = rng.randint(0, 4)
        db = rng.randint(0, 4)
        a = random_homogeneous(ctx, rng, da)
        b = random_homogeneous(ctx, rng, db)
        lhs = a * b
        rhs = (b * a).scale(Scalar((-1) ** (da * db)))
        assert lhs == rhs

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, seed):
        rng = random.Random(seed)
        ctx = make_ctx(5, 3)
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
        assert (a * b) * c == a * (b * c)

    def test_context_mismatch(self):
        from transgress.algebra import ContextError

        c1, c2 = make_ctx(), make_ctx()
        with pytest.raises(ContextError):
            c1.gen(0) * c2.gen(0)

    def test_canonical_idempotence(self):
        ctx = make_ctx()
        rng = random.Random(7)
        x = ctx.random_element(rng, terms=5)
        rebuilt = GradedElement(ctx, dict(x.terms))
        assert rebuilt == x
        assert all(not c.is_zero for c in rebuilt.terms.values())

    def test_degree_bookkeeping(self):
        ctx = make_ctx()
        e = from_word(ctx, [0, 1, 100], t_power=3)
        assert e.degree() == 4  # two odds + one even; t does not count
        mixed = e + ctx.gen(0)
        assert not mixed.is_homogeneous
        with pytest.raises(ContractError):
            mixed.degree()


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def d_like(ctx):
    """A degree +1 derivation: x_i -> y_(i mod n_even), y_j -> 0 is invalid
    (degree 3 needed), so send y_j to products of odds."""
    images = {}
    odd = ctx.odd_ids
    even = ctx.even_ids
    for i, gid in enumerate(odd):
        images[gid] = ctx.gen(even[i % len(even)])
    for j, gid in enumerate(even):
        a, b, c = odd[j % len(odd)], odd[(j + 1) % len(odd)], odd[(j + 2) % len(odd)]
        images[gid] = from_word(ctx, [a, b, c])
    return Derivation(ctx, images, +1)


class TestDerivation:
    def test_kills_constants(self):
        ctx = make_ctx()
        D = d_like(ctx)
        assert D(ctx.one()).is_zero
        assert D(ctx.scalar(Scalar(5, two_pi=2))).is_zero

    def test_leibniz_sign_on_odd_pair(self):
        ctx = make_ctx()
        D = d_like(ctx)
        x, y = ctx.gen(0), ctx.gen(1)
        assert D(x * y) == D(x) * y - x * D(y)

    def test_leibniz_200_random_pairs(self):
        ctx = make_ctx(6, 6)
        D = d_like(ctx)
        rng = random.Random(20240817)
        for _ in range(200):
            deg = rng.randint(0, 3)
            a = random_homogeneous(ctx, rng, deg, terms=2, max_t=1)
            b = ctx.random_element(rng, terms=2, max_t=1)
            lhs = D(a * b)
            rhs = D(a) * b + a.scale(Scalar((-1) ** deg)) * D(b)
            assert lhs == rhs

    def test_degree_minus_one(self):
        ctx = make_ctx()
        images = {0: ctx.one()}
        iota = Derivation(ctx, images, -1)
        assert iota(ctx.gen(0)) == ctx.one()
        assert iota(ctx.gen(1)).is_zero
        # contraction anti-derivation on a two-factor monomial
        assert iota(from_word(ctx, [0, 1])) == ctx.gen(1)
        assert iota(from_word(ctx, [1, 0])) == -ctx.gen(1)

    def test_rejects_non_homogeneous_image(self):
        ctx = make_ctx()
        bad = ctx.gen(100) + ctx.one()  # degree 2 + degree 0
        with pytest.raises(ContractError):
            Derivation(ctx, {0: bad}, +1)

    def test_rejects_wrong_degree_image(self):
        ctx = make_ctx()
        with pytest.raises(ContractError):
            Derivation(ctx, {0: ctx.gen(1)}, +1)  # needs degree 2, got 1


# ---------------------------------------------------------------------------
# Bitmask monomials against the tuple-monomial oracles
# ---------------------------------------------------------------------------

# odd ids up to 130, so masks pass 64 bits; even ids sit above them
ODD_ID = st.integers(0, 130)
EVEN_IDS = tuple(range(200, 204))
PARTS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
COEFF = st.builds(Scalar, PARTS, PARTS).filter(bool)


@st.composite
def monomials(draw, odd_ids=None, even_ids=EVEN_IDS):
    ids = st.sampled_from(odd_ids) if odd_ids else ODD_ID
    odd = draw(st.lists(ids, max_size=6, unique=True))
    even = draw(st.lists(st.sampled_from(even_ids), max_size=3)) if even_ids else []
    return Monomial(sum(1 << g for g in odd), tuple(sorted(even)),
                    draw(st.integers(0, 3)))


@st.composite
def homogeneous_monomials(draw, ctx, degree):
    """A monomial of one form degree, or None if the context has none."""
    odd_ids, even_ids = ctx.odd_ids, ctx.even_ids
    feasible = [n_even for n_even in range(degree // 2 + 1)
                if degree - 2 * n_even <= len(odd_ids) and (n_even == 0 or even_ids)]
    if not feasible:
        return None
    n_even = draw(st.sampled_from(feasible))
    odd = draw(st.lists(st.sampled_from(odd_ids), min_size=degree - 2 * n_even,
                        max_size=degree - 2 * n_even, unique=True))
    even = draw(st.lists(st.sampled_from(even_ids), min_size=n_even,
                         max_size=n_even)) if n_even else []
    return Monomial(sum(1 << g for g in odd), tuple(sorted(even)),
                    draw(st.integers(0, 2)))


@st.composite
def contexts(draw):
    odd_ids = draw(st.lists(ODD_ID, min_size=1, max_size=8, unique=True))
    even_ids = EVEN_IDS[:draw(st.integers(0, len(EVEN_IDS)))]
    return Context([Generator(g, 1, f"x{g}") for g in odd_ids]
                   + [Generator(g, 2, f"y{g}") for g in even_ids])


@st.composite
def elements(draw, ctx, max_terms=5):
    terms = draw(st.dictionaries(monomials(ctx.odd_ids, ctx.even_ids), COEFF,
                                 max_size=max_terms))
    return GradedElement(ctx, terms)


@st.composite
def derivations(draw, ctx):
    """A degree +1 or -1 derivation with images of 1-4 terms on up to five
    generators."""
    degree = draw(st.sampled_from((1, -1)))
    images = {}
    for gen in draw(st.lists(st.sampled_from(ctx.generators), max_size=5,
                             unique=True)):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            mono = draw(homogeneous_monomials(ctx, gen.degree + degree))
            if mono is not None:
                terms[mono] = draw(COEFF)
        images[gen.gid] = GradedElement(ctx, terms)
    return Derivation(ctx, images, degree)


@st.composite
def derivation_cases(draw):
    """A drawn derivation and an element of up to six terms it applies to."""
    ctx = draw(contexts())
    return draw(derivations(ctx)), draw(elements(ctx, max_terms=6))


def even_powers_case():
    """d on terms with an even generator at exponents 2 and 3, the
    generator having an image, beside odd factors with images."""
    ctx = make_ctx(3, 2)
    (w0, w1, w2), (W0, W1) = [ctx.gen(g) for g in ctx.odd_ids], [ctx.gen(g) for g in ctx.even_ids]
    D = Derivation(ctx, {1: W0 + (w0 * w2).scale(3), 100: w0 * w1 * w2 - (w1 * W1).scale(2)},
                   +1)
    x = (w1 * W0 * W0 * W0 + (w0 * W0 * W0 * W1).scale(Scalar(Fraction(-2, 3))).times_t(1)
         + W0 * W0 - w0 * w1 * W0 * W0)
    return D, x


def long_input_case():
    """d on an element of more stored terms than one block of the kernel,
    whose images meet across the blocks."""
    ctx = make_ctx(8, 2)
    terms = {}
    for mask in range(256):
        terms[Monomial(mask, (), mask % 2)] = Scalar(Fraction(mask % 11 - 5 or 7, 1 + mask % 3))
        if mask.bit_count() <= 2:
            terms[Monomial(mask, (100,), 0)] = Scalar(mask % 5 + 1)
    w = [ctx.gen(g) for g in ctx.odd_ids]
    W0, W1 = (ctx.gen(g) for g in ctx.even_ids)
    D = Derivation(ctx, {0: W0 - w[1] * w[2], 3: W1 + w[0] * w[5], 6: w[2] * w[7].times_t(1),
                         100: w[1] * w[3] * w[4] + w[2] * W1}, +1)
    return D, GradedElement(ctx, terms)


def interior_on_even_case():
    """A degree -1 derivation with images on an even generator, at
    exponents 1 and 2, and on an odd one."""
    ctx = make_ctx(3, 2)
    w0, w1, w2 = (ctx.gen(g) for g in ctx.odd_ids)
    W0, W1 = (ctx.gen(g) for g in ctx.even_ids)
    D = Derivation(ctx, {100: w1 - w2.times_t(1).scale(2), 0: ctx.one()}, -1)
    x = w0 * w2 * W0 * W0 + (w1 * W0 * W1).scale(5) - w0 * w1 * W1 + W0.times_t(2)
    return D, x


def gaussian_case():
    """Gaussian images on a Gaussian input, so that i parts meet on both
    sides."""
    ctx = make_ctx(3, 2)
    w0, w1, w2 = (ctx.gen(g) for g in ctx.odd_ids)
    W0, W1 = (ctx.gen(g) for g in ctx.even_ids)
    D = Derivation(ctx, {0: W0.scale(Scalar(1, 2)) + (w1 * w2).scale(Scalar(0, -1)),
                         2: W1.scale(Scalar(0, 1)),
                         101: (w0 * W0).scale(Scalar(Fraction(1, 2), -3))}, +1)
    x = (w0 * w2).scale(Scalar(2, 1)) + (w0 * W1).scale(Scalar(0, 3)) + w2 * W1 * W1 - W1
    return D, x


class TestBitmaskOracles:
    """Bitmask monomials, ``mono_mul``, products and derivations against
    the tuple-monomial code in ``helpers``: the same signs, monomials and
    coefficients, in the same insertion order."""

    @given(monomials(), monomials())
    @settings(max_examples=200, deadline=None)
    def test_mono_mul(self, m1, m2):
        t1, t2 = to_tuple_mono(m1), to_tuple_mono(m2)
        assert from_tuple_mono(t1) == m1
        assert m1.degree == len(t1.odd) + 2 * len(t1.even)
        assert list(m1.odd) == sorted(g for g in range(131) if m1.odd_mask >> g & 1)
        sign, mono = mono_mul(m1, m2)
        want_sign, want = tuple_mono_mul(t1, t2)
        assert sign == want_sign
        assert (mono is None and want is None) or to_tuple_mono(mono) == want

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_product(self, data):
        ctx = data.draw(contexts())
        a, b = data.draw(elements(ctx)), data.draw(elements(ctx))
        want = tuple_product(tuple_terms(a), tuple_terms(b))
        assert list(tuple_terms(a * b).items()) == list(want.items())

    @given(derivation_cases())
    @example(even_powers_case())
    @example(long_input_case())
    @example(interior_on_even_case())
    @example(gaussian_case())
    @settings(max_examples=100, deadline=None)
    def test_derivation(self, case):
        D, x = case
        images = {gid: tuple_terms(img) for gid, img in D.images.items()}
        want = tuple_derivation_apply(images, tuple_terms(x))
        assert list(tuple_terms(D(x)).items()) == list(want.items())

    @pytest.mark.parametrize("gid", [-1, True, False, "3", 2.0, None])
    def test_context_rejects_bad_odd_ids(self, gid):
        with pytest.raises(ContractError, match="odd generator id"):
            Context([Generator(gid, 1, "x")])


def with_powers(x: GradedElement, power_of) -> GradedElement:
    """x with each coefficient carrying the (2pi) power ``power_of(mono)``."""
    return GradedElement(x.ctx, {m: Scalar(c.re, c.im, two_pi=power_of(m))
                                 for m, c in x.terms.items()})


def oracle_apply(D: Derivation, x: GradedElement) -> list:
    images = {gid: tuple_terms(img) for gid, img in D.images.items()}
    return list(tuple_derivation_apply(images, tuple_terms(x)).items())


@st.composite
def image_collisions(draw):
    """A context, two odd generators g and h, and a nonzero element E of the
    degree their images need under a derivation of the drawn degree."""
    ctx = draw(contexts())
    assume(len(ctx.odd_ids) >= 2)
    g, h = draw(st.lists(st.sampled_from(ctx.odd_ids), min_size=2, max_size=2,
                         unique=True))
    degree = draw(st.sampled_from((1, -1)))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = draw(homogeneous_monomials(ctx, 1 + degree))
        assume(mono is not None)
        terms[mono] = draw(COEFF)
    return ctx, g, h, degree, GradedElement(ctx, terms)


class TestDerivationCoefficients:
    """Derivations whose coefficients carry (2pi) powers or cancel, against
    the tuple-monomial oracle: the same terms in the same insertion order."""

    @given(st.data(), st.integers(-2, 3), st.integers(-2, 3))
    @settings(max_examples=60, deadline=None)
    def test_uniform_powers(self, data, p, q):
        ctx = data.draw(contexts())
        D = data.draw(derivations(ctx))
        D = Derivation(ctx, {gid: with_powers(img, lambda m: q)
                             for gid, img in D.images.items()}, D.degree)
        x = with_powers(data.draw(elements(ctx, max_terms=6)), lambda m: p)
        assert list(tuple_terms(D(x)).items()) == oracle_apply(D, x)

    @given(st.data(), st.integers(-2, 3), st.integers(-2, 3))
    @settings(max_examples=60, deadline=None)
    def test_mixed_powers_on_distinct_monomials(self, data, p, q):
        # the power of every term follows its t-degree: an element, or the
        # images of a derivation, at two powers is refused, even where no
        # two terms meet on one monomial; one power throughout matches the
        # oracle
        ctx = data.draw(contexts())
        drawn = data.draw(derivations(ctx))
        x = data.draw(elements(ctx, max_terms=6))
        image_powers = [{q + m.t_deg for m in img.terms} for img in drawn.images.values()]
        if (len({p + m.t_deg for m in x.terms}) > 1
                or len(set().union(*image_powers)) > 1):
            with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
                Derivation(ctx, {gid: with_powers(img, lambda m: q + m.t_deg)
                                 for gid, img in drawn.images.items()}, drawn.degree)
                with_powers(x, lambda m: p + m.t_deg)
            return
        D = Derivation(ctx, {gid: with_powers(img, lambda m: q + m.t_deg)
                             for gid, img in drawn.images.items()}, drawn.degree)
        x = with_powers(x, lambda m: p + m.t_deg)
        assert list(tuple_terms(D(x)).items()) == oracle_apply(D, x)

    @given(image_collisions(), COEFF, COEFF, st.integers(-2, 3), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_mixed_powers_on_one_monomial_raise(self, case, a, b, p, gap):
        # D(a g + b h) = a E + b E, at powers p and p + gap on every term of
        # E: the oracle refuses the sum, the element a g + b h is refused
        # itself, and so are images a E and b E at those powers
        ctx, g, h, degree, image = case
        D = Derivation(ctx, {g: image, h: image}, degree)
        terms = {Monomial(1 << g, (), 0): Scalar(a.re, a.im, p),
                 Monomial(1 << h, (), 0): Scalar(b.re, b.im, p + gap)}
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            tuple_derivation_apply({gid: tuple_terms(img) for gid, img in D.images.items()},
                                   {to_tuple_mono(m): c for m, c in terms.items()})
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            GradedElement(ctx, terms)
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            Derivation(ctx, {g: image.scale(Scalar(a.re, a.im, p)),
                             h: image.scale(Scalar(b.re, b.im, p + gap))}, degree)

    @given(st.data(), image_collisions(), COEFF)
    @settings(max_examples=60, deadline=None)
    def test_terms_that_cancel(self, data, case, q):
        # D(q g + h) = q E - q E: every term of the pair cancels
        ctx, g, h, degree, image = case
        drawn = data.draw(derivations(ctx))
        images = dict(drawn.images) if drawn.degree == degree else {}
        images[g], images[h] = image, image.scale(-q)
        D = Derivation(ctx, images, degree)
        pair = ctx.gen(g).scale(q) + ctx.gen(h)
        assert D(pair).is_zero
        x = data.draw(elements(ctx, max_terms=4)) + pair
        assert list(tuple_terms(D(x)).items()) == oracle_apply(D, x)


# ---------------------------------------------------------------------------
# One-int monomial keys against the tuple-monomial oracle
# ---------------------------------------------------------------------------

@st.composite
def key_contexts(draw):
    """Odd ids up to 130 and sparse, non-contiguous even ids above them."""
    odd_ids = draw(st.lists(ODD_ID, min_size=1, max_size=8, unique=True))
    even_ids = draw(st.lists(st.integers(131, 5000), min_size=1, max_size=5, unique=True))
    return Context([Generator(g, 1, f"x{g}") for g in odd_ids]
                   + [Generator(g, 2, f"y{g}") for g in even_ids])


def powered(x: GradedElement, p: int, by_t: bool):
    """x at the (2pi) power p, or at p plus the t-degree of each term; None
    when that puts the terms of x at two powers, which is refused."""
    if by_t and len({m.t_deg for m in x.terms}) > 1:
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            with_powers(x, lambda m: p + m.t_deg)
        return None
    return with_powers(x, lambda m: p + m.t_deg if by_t else p)


def kernel_product(a: GradedElement, b: GradedElement, scale: int) -> dict:
    """scale * a * b through ``_product`` on the stored keys, decoded."""
    frame = _Frame(a.ctx, [((a,), 1), ((b,), 1)])
    acc = _product(frame.align(a), frame.align(b, 1), frame.layout, scale=scale)
    return dict(frame.element(acc).terms)


LIMIT_CTX = Context([Generator(3, 1, "x3"), Generator(130, 1, "x130"),
                     Generator(200, 2, "y200"), Generator(977, 2, "y977")])


class TestKeyOracles:
    """Products on one-int keys against ``tuple_product``: the same
    monomials, signs and coefficients in the same insertion order."""

    @given(st.data(), st.integers(-3, 3).filter(bool), st.integers(-2, 3),
           st.integers(-2, 3), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_product_and_mul(self, data, scale, p, q, by_t):
        ctx = data.draw(key_contexts())
        a = powered(data.draw(elements(ctx, max_terms=6)), p, by_t)
        b = powered(data.draw(elements(ctx, max_terms=6)), q, by_t)
        if a is None or b is None:
            return
        want = tuple_product(tuple_terms(a), tuple_terms(b))
        assert list(tuple_terms(a * b).items()) == list(want.items())
        got = GradedElement(ctx, kernel_product(a, b, scale))
        want = tuple_product(tuple_terms(a.scale(scale)), tuple_terms(b))
        assert list(tuple_terms(got).items()) == list(want.items())

    @given(key_contexts(), st.integers(0, 9), st.integers(0, 9), COEFF, COEFF)
    @example(LIMIT_CTX, 3, 4, Scalar(1), Scalar(Fraction(-1, 2), 1))  # 7 = 2**3 - 1
    @example(LIMIT_CTX, 4, 4, Scalar(1), Scalar(1))  # 8 would carry past 2**3 - 1
    @example(LIMIT_CTX, 1, 0, Scalar(2), Scalar(3))
    @settings(max_examples=60, deadline=None)
    def test_exponent_fields(self, ctx, e1, e2, c1, c2):
        # the largest even count of each side sits on one generator, so one
        # product term reaches e1 + e2 in a field of exactly that many bits
        x, y, z = ctx.odd_ids[0], ctx.even_ids[0], ctx.even_ids[-1]
        a = {Monomial(0, (y,) * e1, 1): c1}
        b = {Monomial(1 << x, (y,) * e2, 0): c2, Monomial(0, (z,) * e2, 2): c1}
        if e1:
            a[Monomial(1 << x, (y,) * (e1 - 1) + (z,) * (y != z), 0)] = c2
        a, b = GradedElement(ctx, a), GradedElement(ctx, b)
        assert (a * b)._layout.width == (e1 + e2).bit_length()
        want = tuple_product(tuple_terms(a), tuple_terms(b))
        assert list(tuple_terms(a * b).items()) == list(want.items())

    @given(key_contexts(), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_layout_round_trip(self, ctx, width, data):
        # every exponent up to 2**width - 1 comes back from its field
        most = (1 << width) - 1
        terms = {}
        for _ in range(data.draw(st.integers(1, 5))):
            odd = data.draw(st.lists(st.sampled_from(ctx.odd_ids), unique=True))
            counts = data.draw(st.lists(st.integers(0, most), min_size=len(ctx.even_ids),
                                        max_size=len(ctx.even_ids)))
            even = sum(((g,) * n for g, n in zip(ctx.even_ids, counts)), ())
            terms[Monomial(sum(1 << g for g in odd), even, data.draw(st.integers(0, 3)))] = ONE
        layout = ctx._layout(width)
        x = GradedElement(ctx, terms)
        keyed = _element(ctx, layout, _aligned(x, layout), x._den, x._power)
        assert list(keyed.terms) == list(terms)

    def test_mul_keeps_a_power_whose_terms_cancel(self):
        # XY gets c at power 1, then 1 at power 0, then -c at power 1: the
        # oracle refuses the sum, and a, whose terms sit at two powers, is
        # refused itself
        ctx = make_ctx()
        X, Y = (Monomial(0, (g,), 0) for g in ctx.even_ids[:2])
        XY = Monomial(0, X.even + Y.even, 0)
        c = Scalar(1, two_pi=1)
        a = {X: c, UNIT_MONO: ONE, Y: c}
        b = GradedElement(ctx, {Y: ONE, X: Scalar(-1), XY: ONE})
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            tuple_product({to_tuple_mono(m): v for m, v in a.items()}, tuple_terms(b))
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            GradedElement(ctx, a)
        # the XY terms of a1 * b cancel, and the product keeps the power 1
        a0 = GradedElement(ctx, {UNIT_MONO: ONE})
        a1 = GradedElement(ctx, {X: c, Y: c})
        assert (a1 * b).coefficient(XY) == ZERO
        assert {v.two_pi for v in (a1 * b).terms.values()} == {1}
        assert (a0 * b).coefficient(XY) == ONE
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            a0 * b + a1 * b

    def test_mul_refuses_two_surviving_powers(self):
        ctx = make_ctx()
        X, Y = (Monomial(0, (g,), 0) for g in ctx.even_ids[:2])
        b = GradedElement(ctx, {Y: ONE, Monomial(0, X.even + Y.even, 0): ONE})
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            GradedElement(ctx, {X: Scalar(1, two_pi=1), UNIT_MONO: ONE})
        with pytest.raises(ContractError, match="different \\(2pi\\) powers"):
            GradedElement(ctx, {X: Scalar(1, two_pi=1)}) * b + b

    @pytest.mark.parametrize("mono", [Monomial(1 << 4, (), 0), Monomial(0, (99,), 0)])
    def test_generators_outside_the_context(self, mono):
        ctx = make_ctx()  # odd ids 0-3, even ids 100-102
        with pytest.raises(ContextError, match="outside its context"):
            GradedElement(ctx, {mono: ONE}) * ctx.gen(0)


# ---------------------------------------------------------------------------
# Calculus in t
# ---------------------------------------------------------------------------

def fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def t_poly(ctx, *coeffs):
    """Element sum_d coeffs[d] * t^d."""
    acc = ctx.zero()
    for d, c in enumerate(coeffs):
        acc = acc + ctx.scalar(c).times_t(d)
    return acc


class TestIntegration:
    def test_constant(self):
        ctx = make_ctx()
        assert integrate_unit_interval(ctx.one()) == ctx.one()

    @pytest.mark.parametrize("k", range(1, 7))
    def test_beta_values(self, k):
        # int_0^1 t^(k-j-1) (1-t)^(i+j) dt == (k-j-1)! (i+j)! / (k+i)!
        ctx = make_ctx()
        t = ctx.one().times_t(1)
        one_minus_t = ctx.one() - t
        for j in range(k):
            for i in range(k - j):
                poly = ctx.one()
                for _ in range(k - j - 1):
                    poly = poly * t
                for _ in range(i + j):
                    poly = poly * one_minus_t
                got = integrate_unit_interval(poly)
                want = Fraction(fact(k - j - 1) * fact(i + j), fact(k + i))
                assert got == ctx.scalar(want)

    @pytest.mark.parametrize("m", range(9))
    def test_even_power_values(self, m):
        # int_0^1 (1-t^2)^m dt == (2m)!! / (2m+1)!!
        ctx = make_ctx()
        base = ctx.one() - ctx.one().times_t(2)
        poly = ctx.one()
        for _ in range(m):
            poly = poly * base
        want = Fraction(double_factorial(2 * m), double_factorial(2 * m + 1))
        assert integrate_unit_interval(poly) == ctx.scalar(want)

    def test_linearity_and_antiderivative_endpoints(self):
        # integration agrees with the power-rule antiderivative evaluated
        # at the endpoints via substitute_t
        ctx = make_ctx(3, 2)
        rng = random.Random(5)
        for _ in range(25):
            x = ctx.random_element(rng, terms=4, max_t=4)
            anti = {}
            for mono, coeff in x.terms.items():
                anti[mono._replace(t_deg=mono.t_deg + 1)] = coeff / (
                    mono.t_deg + 1
                )
            F = GradedElement(ctx, anti)
            endpoint = substitute_t(F, ONE) - substitute_t(F, ZERO)
            assert integrate_unit_interval(x) == endpoint

    def test_result_is_t_free(self):
        ctx = make_ctx()
        x = ctx.gen(0).times_t(3) + ctx.gen(100).times_t(1)
        out = integrate_unit_interval(x)
        assert all(m.t_deg == 0 for m in out.terms)


class TestSubstitute:
    def test_noop_on_t_free(self):
        ctx = make_ctx()
        rng = random.Random(11)
        x = ctx.random_element(rng, max_t=0)
        assert substitute_t(x, HALF) == x

    def test_polynomial_evaluation(self):
        ctx = make_ctx()
        # (2 - 3t + t^2) at t = 1/2 -> 2 - 3/2 + 1/4 = 3/4
        p = t_poly(ctx, 2, -3, 1)
        assert substitute_t(p, HALF) == ctx.scalar(Fraction(3, 4))
        assert substitute_t(p, ONE) == ctx.scalar(0)

    def test_t_derivative(self):
        ctx = make_ctx()
        p = t_poly(ctx, 5, 2, -1)  # 5 + 2t - t^2
        assert t_derivative(p) == t_poly(ctx, 2, -2)
        assert t_derivative(ctx.one()).is_zero


# ---------------------------------------------------------------------------
# Linear operations and calculus in t on the stored numerators, against the
# operations on {Monomial: Scalar} term dicts in ``helpers``
# ---------------------------------------------------------------------------

POWERS = st.integers(-2, 2)


@st.composite
def term_dicts(draw, ctx, powers=st.just(0), max_terms=5):
    """{Monomial: Scalar} with Gaussian coefficients at one drawn (2pi)
    power."""
    monos = draw(st.lists(monomials(ctx.odd_ids, ctx.even_ids), max_size=max_terms,
                          unique=True))
    power = draw(powers)
    out = {}
    for m in monos:
        c = draw(COEFF)
        out[m] = Scalar(c.re, c.im, power)
    return out


def power_of(a: dict) -> int:
    """The one (2pi) power of a term dict, 0 for an empty one."""
    return next(iter(a.values())).two_pi if a else 0


@st.composite
def cancelling_pairs(draw, powers=st.just(0)):
    """A context and term dicts a and b, where b cancels part of a and adds
    terms of its own; when it cancels any, its own terms are at a's power."""
    ctx = draw(contexts())
    a = draw(term_dicts(ctx, powers))
    b = {m: -c for m, c in a.items() if draw(st.booleans())}
    own = draw(term_dicts(ctx, st.just(power_of(a)) if b else powers))
    for m, c in own.items():
        b.setdefault(m, c)
    return ctx, a, b


def outcome(fn):
    """The terms fn gives, in order, or the error it raises."""
    try:
        out = fn()
    except ContractError:
        return "ContractError"
    return list(out.terms.items()) if isinstance(out, GradedElement) else list(out.items())


def rebuilt(x: GradedElement, extra_width: int, den_factor: int) -> GradedElement:
    """x stored again in a wider layout and over a larger denominator."""
    layout = x.ctx._layout(x._layout.width + extra_width)
    nums = _aligned(x, layout, x._den * den_factor)
    return _element(x.ctx, layout, nums, x._den * den_factor, x._power, x._most)


class TestIntegerOperations:
    """``+``, ``-``, negation, ``scale``, ``times_t``, ``t_derivative``,
    ``integrate_unit_interval``, ``substitute_t`` and ``==`` on the stored
    numerators against the same operations on Scalar term dicts: the same
    terms in the same order, or ContractError on both sides."""

    @given(cancelling_pairs(POWERS))
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference(self, case):
        ctx, a, b = case
        x, y = GradedElement(ctx, a), GradedElement(ctx, b)
        if a and b and power_of(a) != power_of(b):
            # a sum of two elements at two powers is refused, even where no
            # two terms meet on one monomial
            assert outcome(lambda: x + y) == outcome(lambda: x - y) == "ContractError"
        else:
            assert outcome(lambda: x + y) == outcome(lambda: terms_add(a, b))
            assert outcome(lambda: x - y) == outcome(lambda: terms_sub(a, b))
        assert outcome(lambda: -x) == outcome(lambda: terms_neg(a))
        assert (x == y) == (a == b) and (x == x) and (y == GradedElement(ctx, dict(b)))

    @given(cancelling_pairs())
    @settings(max_examples=60, deadline=None)
    def test_cancelling_terms(self, case):
        ctx, a, b = case
        x = GradedElement(ctx, a)
        assert (x - x).is_zero and (x + (-x)).is_zero
        assert outcome(lambda: x + GradedElement(ctx, b)) == outcome(lambda: terms_add(a, b))

    @given(st.data(), st.sampled_from([Scalar(0), Scalar(1), Scalar(-3), Scalar(Fraction(2, 9)),
                                       Scalar(0, 1), Scalar(Fraction(1, 2), -2, two_pi=1),
                                       Scalar(3, two_pi=-2)]))
    @settings(max_examples=80, deadline=None)
    def test_scale_and_times_t(self, data, s):
        ctx = data.draw(contexts())
        a = data.draw(term_dicts(ctx, POWERS))
        x = GradedElement(ctx, a)
        assert outcome(lambda: x.scale(s)) == outcome(lambda: terms_scale(a, s))
        power = data.draw(st.integers(-1, 3))
        assert outcome(lambda: x.times_t(power)) == outcome(lambda: terms_times_t(a, power))

    @given(st.data(), st.sampled_from([Scalar(0), Scalar(1), Scalar(-1), HALF,
                                       Scalar(Fraction(-2, 3)), Scalar(0, 1),
                                       Scalar(1, 1), Scalar(2, two_pi=1), Scalar(1, two_pi=-1)]))
    @settings(max_examples=120, deadline=None)
    def test_calculus_in_t(self, data, value):
        ctx = data.draw(contexts())
        a = data.draw(term_dicts(ctx, data.draw(st.sampled_from([st.just(0), POWERS]))))
        x = GradedElement(ctx, a)
        assert outcome(lambda: t_derivative(x)) == outcome(lambda: terms_t_derivative(a))
        assert outcome(lambda: integrate_unit_interval(x)) == outcome(lambda: terms_integrate(a))
        if value.two_pi:
            # a powered value would put the t-degrees at different powers
            assert outcome(lambda: substitute_t(x, value)) == "ContractError"
        else:
            assert (outcome(lambda: substitute_t(x, value))
                    == outcome(lambda: terms_substitute(a, value)))

    @given(st.integers(1, 3), st.booleans(), COEFF, COEFF)
    @settings(max_examples=40, deadline=None)
    def test_exponents_at_and_past_the_field(self, width, past, c1, c2):
        # y^(2**w - 1) fills a field of w bits; y^(2**w) needs one more
        ctx = make_ctx(2, 2)
        y, z = ctx.even_ids
        top = (1 << width) - 1 + past
        a = {Monomial(1, (y,) * top, 1): c1, Monomial(0, (z,), 0): c2}
        b = {Monomial(1, (y,) * top, 1): -c1, Monomial(2, (y,) * ((1 << width) - 1), 2): c2}
        x, w = GradedElement(ctx, a), GradedElement(ctx, b)
        assert outcome(lambda: x + w) == outcome(lambda: terms_add(a, b))
        assert outcome(lambda: integrate_unit_interval(x - w)) == outcome(
            lambda: terms_integrate(terms_sub(a, b)))
        assert outcome(lambda: x * w) == outcome(lambda: tuple_product_terms(a, b))
        assert x == rebuilt(x, 1, 1)

    @given(st.data(), st.integers(0, 2), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_equal_under_other_frames(self, data, extra_width, den_factor):
        ctx = data.draw(contexts())
        x = GradedElement(ctx, data.draw(term_dicts(ctx, POWERS)))
        y = rebuilt(x, extra_width, den_factor)
        assert x == y and y == x
        assert list(y.terms.items()) == list(x.terms.items())
        assert (x - y).is_zero and x + y == x.scale(2)
        if x.terms:
            m, c = next(iter(x.terms.items()))
            assert x != y + GradedElement(ctx, {m: c})

    def test_kernel_outputs_keep_the_insertion_order(self):
        # d(w0 w1 W2): each image term in the order of the Leibniz walk
        ctx = make_ctx(3, 3)
        w0, w1, w2 = (ctx.gen(g) for g in ctx.odd_ids)
        W0, W1, W2 = (ctx.gen(g) for g in ctx.even_ids)
        d = Derivation(ctx, {0: W0 - w1 * w2, 1: W1.scale(2), 2: W2 + w0 * w1,
                             100: W1 * w2, 101: W0 * w0, 102: W2 * w1}, +1)
        x = w0 * w1 * W2 + (w2 * W0).times_t(1)
        got = d(x)
        assert len(got.terms) == got.term_count
        images = {gid: tuple_terms(img) for gid, img in d.images.items()}
        want = tuple_derivation_apply(images, tuple_terms(x))
        assert [to_tuple_mono(m) for m in got.terms] == list(want)
        assert list(tuple_terms(x * got).items()) == list(
            tuple_product(tuple_terms(x), tuple_terms(got)).items())

    def test_terms_is_one_decoded_dict(self):
        # term_count counts without decoding; terms is decoded on first read,
        # kept and read-only, and refers to no element, so it makes no cycle
        ctx = make_ctx(2, 2)
        w0, w1, W0 = ctx.gen(0), ctx.gen(1), ctx.gen(100)
        x = w0 * W0 + (w0 * w1).scale(Scalar(1, 2)) + (w1 * W0).scale(Scalar(0, 1)).times_t(1)
        assert x.term_count == 3 and x._terms is None
        terms = x.terms
        assert x.terms is terms and len(terms) == 3
        with pytest.raises(TypeError):
            terms[Monomial(1, (), 0)] = ONE
        seen, todo = set(), [terms]
        while todo:
            obj = todo.pop()
            assert not isinstance(obj, GradedElement)
            if id(obj) not in seen and not isinstance(obj, type):
                seen.add(id(obj))
                todo.extend(gc.get_referents(obj))


class TestRandomElements:
    """``Context.random_element`` builds its stored form directly: the
    same random calls as the Monomial-keyed construction and an equal
    element with the same terms in the same order."""

    @given(st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 3),
           st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_matches_monomial_construction(self, data, seed, terms, max_odd, max_even,
                                           max_t):
        ctx = data.draw(contexts())
        options = dict(terms=terms, max_odd=max_odd, max_even=max_even, max_t=max_t)
        r1, r2 = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = ctx.random_element(r1, **options)
            want = random_element_by_monomials(ctx, r2, **options)
            assert got == want
            assert list(got.terms.items()) == list(want.terms.items())
            assert (got._layout, got._den, got._most) == (want._layout, want._den, want._most)
        assert r1.getstate() == r2.getstate()

    def test_cancelling_draws(self):
        # with one odd generator and no t, three draws often meet and cancel
        ctx = make_ctx(1, 0)
        seen_zero = False
        for seed in range(200):
            got = ctx.random_element(random.Random(seed), terms=3, max_odd=1, max_t=0)
            want = random_element_by_monomials(ctx, random.Random(seed), terms=3, max_odd=1,
                                               max_t=0)
            assert got == want and list(got.terms.items()) == list(want.terms.items())
            seen_zero |= got.is_zero
        assert seen_zero


def tuple_product_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts through the tuple-monomial oracle."""
    return {from_tuple_mono(m): c for m, c in tuple_product(
        {to_tuple_mono(m): c for m, c in a.items()},
        {to_tuple_mono(m): c for m, c in b.items()}).items()}
