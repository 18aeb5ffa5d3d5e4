"""Exact sparse graded-commutative algebra with a formal deformation parameter.

Generators come in two parities: odd generators (form degree 1) anticommute
and square to zero, even generators (form degree 2) are central.  Every
element may additionally depend polynomially on a commuting degree-0
parameter t, which never contributes to the form degree and can be
integrated away exactly over the unit interval.

Coefficients are Gaussian rationals carrying a formal power of (2*pi)^(-1)
as a unit tag.  All arithmetic is exact; there is no floating point
anywhere in this package.
"""

from __future__ import annotations

import re as _re
from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import islice
from math import gcd as _gcd, lcm as _lcm
from types import MappingProxyType
from typing import NamedTuple, Sequence, Union

__all__ = [
    "AlgebraError",
    "ContextError",
    "ContractError",
    "Scalar",
    "ZERO",
    "ONE",
    "HALF",
    "Generator",
    "Monomial",
    "Context",
    "GradedElement",
    "Derivation",
    "mono_mul",
    "integrate_unit_interval",
    "substitute_t",
    "t_derivative",
    "permutation_sign",
]


class AlgebraError(Exception):
    """Base error for this package."""


class ContextError(AlgebraError):
    """Operands belong to different generator contexts (or Lie algebras)."""


class ContractError(AlgebraError):
    """An operation precondition was violated."""


RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

class Scalar:
    """A Gaussian rational times a formal power of (2*pi)^(-1).

    ``two_pi`` is the exponent of the unit (2*pi)^(-1), so a scalar with
    ``two_pi == k`` stands for ``(re + im*i) / (2*pi)**k``.  Addition demands
    equal unit powers (except against exact zero), multiplication adds them.

    The value is held as Python ints ``(_re + _im*i) / _den`` with
    ``_den > 0`` and ``gcd(_re, _im, _den) == 1``, and zero is
    ``(0, 0, 1, 0)``.  That form is unique, so equal scalars have equal
    fields and arithmetic never builds a Fraction; ``re`` and ``im`` give
    the parts as Fractions.
    """

    __slots__ = ("_re", "_im", "_den", "two_pi")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, two_pi: int = 0):
        if type(re) is int and type(im) is int:
            den = 1
        else:
            re = re if isinstance(re, Fraction) else Fraction(re)
            im = im if isinstance(im, Fraction) else Fraction(im)
            # both parts are in lowest terms, so over the lcm of their
            # denominators the three-way gcd is already 1
            rd, id_ = re.denominator, im.denominator
            den = rd * id_ // _gcd(rd, id_)
            re = re.numerator * (den // rd)
            im = im.numerator * (den // id_)
        if not re and not im:
            two_pi = 0
        self._re = re
        self._im = im
        self._den = den
        self.two_pi = two_pi

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    @property
    def is_zero(self) -> bool:
        return not self._re and not self._im

    @property
    def is_one(self) -> bool:
        return (self._re == 1 and self._den == 1 and not self._im
                and not self.two_pi)

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
        ar, ai = self._re, self._im
        if not ar and not ai:
            return other
        br, bi = other._re, other._im
        if not br and not bi:
            return self
        two_pi = self.two_pi
        if two_pi != other.two_pi:
            raise ContractError(
                f"cannot add scalars with different (2pi) powers: "
                f"{two_pi} vs {other.two_pi}"
            )
        ad, bd = self._den, other._den
        re, im, den = ar * bd + br * ad, ai * bd + bi * ad, ad * bd
        if not re and not im:
            return ZERO
        g = _gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        return _make(re, im, den, two_pi)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make(-self._re, -self._im, self._den, self.two_pi)

    def __sub__(self, other) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar._coerce(other)
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        re = ar * br - ai * bi
        im = ar * bi + ai * br
        if not re and not im:
            return ZERO
        den = self._den * other._den
        g = _gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        return _make(re, im, den, self.two_pi + other.two_pi)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        re, im, den = self._re, self._im, self._den
        if not re and not im:
            raise ZeroDivisionError("scalar is zero")
        # 1 / ((re + im*i) / den) = den * (re - im*i) / (re^2 + im^2)
        re, im, abs2 = den * re, -den * im, re * re + im * im
        g = _gcd(re, im, abs2)
        return _make(re // g, im // g, abs2 // g, -self.two_pi)

    def __truediv__(self, other) -> "Scalar":
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return (
            self._re == other._re
            and self._im == other._im
            and self._den == other._den
            and self.two_pi == other.two_pi
        )

    def __hash__(self) -> int:
        # a real scalar at power 0 equals its Fraction, so it hashes like it
        if not self._im and not self.two_pi:
            return hash(self.re)
        return hash((self.re, self.im, self.two_pi))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse an exact rational or Gaussian-rational string.

        Accepts forms like ``"3"``, ``"-1/2"``, ``"i"``, ``"3/4i"``,
        ``"1/2+3/4i"``; a unicode minus is tolerated.
        """
        s = text.strip().replace("−", "-").replace(" ", "")
        if not s:
            raise ContractError("empty scalar string")
        parts = _re.findall(r"[+-]?[^+-]+", s)
        if "".join(parts) != s:
            raise ContractError(f"cannot parse scalar {text!r}")
        re_total = Fraction(0)
        im_total = Fraction(0)
        try:
            for part in parts:
                if part.lower().endswith("i"):
                    body = part[:-1]
                    if body in ("", "+", "-"):
                        body += "1"
                    im_total += Fraction(body)
                else:
                    re_total += Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ContractError(f"cannot parse scalar {text!r}: {exc}") from None
        return Scalar(re_total, im_total)

    @staticmethod
    def from_json(value) -> "Scalar":
        """An exact scalar from a JSON value: a string for ``parse`` or an
        integer.  Floats and booleans are refused, since a float is already
        rounded and a boolean is no number."""
        if isinstance(value, str):
            return Scalar.parse(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return Scalar(value)
        raise ContractError(
            f"scalar {value!r} must be an exact string such as \"1/10\" "
            "or an integer")

    def render(self) -> str:
        """Exact string form; the (2*pi) unit renders as ``(2pi)^-k``."""
        if self.is_zero:
            return "0"
        re, im = self.re, self.im
        if not im:
            core = str(re)
        elif not re:
            core = self._imag_str(im)
        else:
            sign = "+" if im > 0 else "-"
            core = f"({re}{sign}{self._imag_str(abs(im))})"
        if self.two_pi:
            core += f"*(2pi)^{-self.two_pi}"
        return core

    @staticmethod
    def _imag_str(q: Fraction) -> str:
        if q == 1:
            return "i"
        if q == -1:
            return "-i"
        return f"{q}i"

    def __repr__(self) -> str:
        return self.render()


_new = object.__new__


def _make(re: int, im: int, den: int, two_pi: int) -> Scalar:
    """A Scalar from fields already in canonical form, skipping coercion."""
    s = _new(Scalar)
    s._re = re
    s._im = im
    s._den = den
    s.two_pi = two_pi
    return s


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, booleans and strings are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ContractError(f"{what} must be an integer, not {value!r}")


def _json_list(value, what: str) -> list:
    """A list read from JSON; any other JSON type is refused."""
    if isinstance(value, list):
        return value
    raise ContractError(f"{what} must be a JSON list, not {value!r}")


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Generators, monomials, contexts
# ---------------------------------------------------------------------------

class Generator(NamedTuple):
    gid: int
    degree: int  # 1 = odd, 2 = even
    label: str

    @property
    def is_odd(self) -> bool:
        return self.degree == 1


class Monomial(NamedTuple):
    """Canonical product of generators times a power of t.

    Bit g of ``odd_mask`` is set for each odd factor g (odd generators square
    to zero), and ``odd`` lists those ids ascending.  ``even`` is a sorted
    multiset.  ``t_deg`` does not count toward the form degree.
    """

    odd_mask: int
    even: tuple
    t_deg: int = 0

    @property
    def odd(self) -> tuple:
        mask = self.odd_mask
        return tuple(g for g in range(mask.bit_length()) if mask >> g & 1)

    @property
    def degree(self) -> int:
        return self.odd_mask.bit_count() + 2 * len(self.even)


UNIT_MONO = Monomial(0, (), 0)

# builds a Monomial from a field tuple without the keyword-aware constructor
_tuple_new = tuple.__new__


def mono_mul(m1: Monomial, m2: Monomial):
    """Product of canonical monomials; returns (sign, Monomial) or (0, None).

    The sign counts, for each odd factor b of m2, the odd factors of m1 above
    b that it moves past; ``o1 & -low`` keeps those, since b is not in m1."""
    o1, e1, t1 = m1
    o2, e2, t2 = m2
    if o1 & o2:
        return 0, None
    inv = 0
    # no factor moves when all of m1 lies below the lowest odd factor of m2
    bits = o2 if o1 > (o2 & -o2) else 0
    while bits:
        low = bits & -bits
        bits ^= low
        inv += (o1 & -low).bit_count()
    even = tuple(sorted(e1 + e2)) if e1 and e2 else e1 or e2
    return (-1 if inv & 1 else 1), _tuple_new(Monomial, (o1 | o2, even, t1 + t2))


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence, by inversion count."""
    inv = 0
    n = len(perm)
    for i in range(n):
        pi = perm[i]
        for j in range(i + 1, n):
            if pi > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


class Context:
    """A finite family of graded generators; elements live over one context."""

    def __init__(self, generators: Iterable[Generator]):
        gens = {}
        for g in generators:
            if not isinstance(g, Generator):
                g = Generator(*g)
            if g.degree not in (1, 2):
                raise ContractError(f"generator degree must be 1 or 2, got {g.degree}")
            if g.is_odd and not (type(g.gid) is int and g.gid >= 0):
                raise ContractError(f"odd generator id {g.gid!r} must be an int >= 0")
            if g.gid in gens:
                raise ContractError(f"duplicate generator id {g.gid}")
            gens[g.gid] = g
        self._gens = gens
        self._order = tuple(sorted(gens.values(), key=lambda g: (g.degree, g.gid)))
        self._layouts = {}  # width -> _Layout

    def _layout(self, width: int) -> "_Layout":
        layout = self._layouts.get(width)
        if layout is None:
            layout = self._layouts[width] = _Layout(self, width)
        return layout

    @property
    def generators(self) -> tuple:
        return self._order

    @property
    def odd_ids(self) -> tuple:
        return tuple(g.gid for g in self._order if g.degree == 1)

    @property
    def even_ids(self) -> tuple:
        return tuple(g.gid for g in self._order if g.degree == 2)

    def generator(self, gid: int) -> Generator:
        return self._gens[gid]

    def zero(self) -> "GradedElement":
        return _element(self, self._layout(0), {}, 1)

    def one(self) -> "GradedElement":
        return _element(self, self._layout(0), {0: 1}, 1, deg=0)

    def scalar(self, value) -> "GradedElement":
        return GradedElement(self, {UNIT_MONO: Scalar._coerce(value)})

    def gen(self, gid: int) -> "GradedElement":
        if self._gens[gid].is_odd:
            return _element(self, self._layout(0), {1 << gid: 1}, 1, deg=1)
        layout = self._layout(1)
        return _element(self, layout, {layout.units[gid]: 1}, 1, most=1, deg=2)

    # Randomized elements for property tests and self-checks.
    def random_element(self, rng, terms: int = 3, max_odd: int = 2,
                       max_even: int = 1, max_t: int = 1) -> "GradedElement":
        odd_ids, even_ids = self.odd_ids, self.even_ids
        acc = {}  # (odd mask, even multiset, t-degree) -> numerator over 6
        for _ in range(terms):
            n_odd = rng.randint(0, min(max_odd, len(odd_ids)))
            odd = sum(1 << g for g in rng.sample(odd_ids, n_odd)) if n_odd else 0
            n_even = rng.randint(0, max_even) if even_ids else 0
            even = tuple(sorted(rng.choices(even_ids, k=n_even))) if n_even else ()
            num, den = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)
            mono = odd, even, rng.randint(0, max_t)
            acc[mono] = acc.get(mono, 0) + num * 6 // den
            if not acc[mono]:
                del acc[mono]
        most = max((len(e) for _, e, _ in acc), default=0)
        layout = self._layout(most.bit_length())
        nums = {o | layout.fields(e) | t << layout.tshift: v for (o, e, t), v in acc.items()}
        return _reduce(_element(self, layout, nums, 6, most=most))

    def __repr__(self) -> str:
        return f"Context({len(self.odd_ids)} odd, {len(self.even_ids)} even)"


def _acc_add(acc: dict, mono: Monomial, coeff: Scalar) -> None:
    new = acc[mono] + coeff if mono in acc else coeff
    if new:
        acc[mono] = new
    else:
        acc.pop(mono, None)


def _mono_sort_key(m: Monomial):
    return (m.degree, m.t_deg, m.odd, m.even)


# ---------------------------------------------------------------------------
# The stored form: one-int keys and integer numerators
# ---------------------------------------------------------------------------

class _Layout:
    """Monomials of one context packed into one int, called a key.

    Bit g holds odd generator g, as in ``odd_mask``.  Above the odd bits sit
    one exponent field of ``width`` bits per even generator, in
    ``ctx.even_ids`` order, then a field of two bits for i, and the t-degree
    on top.  The product of two monomials with disjoint odd parts is then
    the sum of their keys, as long as no even field passes 2**width - 1.
    ``Context`` keeps one layout per width.

    A Gaussian coefficient is stored as two terms: its real part at the key
    of its monomial and its i part at that key plus ``i``.  The i field of a
    sum of two keys reads 2 exactly when both carry i, and i * i = -1 clears
    it and negates the product, so no stored key reads 2 there.
    """

    __slots__ = ("width", "odd", "even_mask", "units", "ids", "i", "tshift")

    def __init__(self, ctx: "Context", width: int):
        n_odd = max(ctx.odd_ids, default=-1) + 1
        ids = ctx.even_ids
        self.width = width
        self.odd = (1 << n_odd) - 1
        top = n_odd + len(ids) * width
        self.i = 1 << top
        self.tshift = top + 2
        self.even_mask = (1 << top) - 1 ^ self.odd
        self.units = {g: 1 << n_odd + i * width for i, g in enumerate(ids)}
        self.ids = ids

    def fields(self, even: tuple) -> int:
        """The even fields of an even multiset."""
        try:
            return sum(map(self.units.__getitem__, even))
        except KeyError:
            raise ContextError(f"monomial with even factors {even} "
                               "outside its context") from None

    def even(self, fields: int) -> tuple:
        """The sorted even multiset of the even fields of a key."""
        width, ids, one = self.width, self.ids, (1 << self.width) - 1
        fields >>= self.odd.bit_length()
        even = ()
        while fields:
            i = ((fields & -fields).bit_length() - 1) // width
            n = fields >> i * width & one
            fields ^= n << i * width
            even += (ids[i],) * n
        return even


def _numerators(v: Scalar, den: int) -> tuple:
    """The nonzero parts of v as numerators over ``den``, a multiple of its
    denominator: (0, re) for the real part, then (1, im) for the i part."""
    f = den // v._den
    re, im = v._re * f, v._im * f
    if not im:
        return ((0, re),)
    return ((0, re), (1, im)) if re else ((1, im),)


def _scalar(re: int, im: int, den: int, power: int) -> Scalar:
    """The Scalar (re + im*i) / den at the (2pi) power ``power``."""
    g = _gcd(re, im, den)
    return _make(re // g, im // g, den // g, power)


def _one_power(powers) -> int:
    """The one (2pi) power among ``powers``, 0 when there is none.  Two are
    refused, as adding Scalars at two powers is."""
    powers = sorted(set(powers))
    if len(powers) > 1:
        raise ContractError(f"cannot add scalars with different (2pi) powers: "
                            f"{powers[0]} vs {powers[1]}")
    return powers[0] if powers else 0


def _common(scalars) -> tuple:
    """Nonzero Scalars at one (2pi) power read as numerators over one
    denominator: (that denominator, the power)."""
    return _lcm(*{v._den for v in scalars}), _one_power(v.two_pi for v in scalars)


def _element(ctx: "Context", layout: _Layout, nums: dict, den: int, power: int = 0,
             most: int = 0, deg: int = None) -> "GradedElement":
    """A GradedElement from its stored form (see ``GradedElement``)."""
    x = _new(GradedElement)
    x.ctx, x._layout, x._nums, x._den, x._power = ctx, layout, nums, den, power
    x._most, x._deg, x._terms = most, deg, None
    return x


def _reduce(x: "GradedElement") -> "GradedElement":
    """x with the common factor of its numerators and its denominator taken
    out, in place: for a new element, before it is shared."""
    nums, g = x._nums, x._den
    if g != 1:
        g = _gcd(g, *nums.values())
    if g != 1:
        for k, v in nums.items():
            nums[k] = v // g
        x._den //= g
    return x


class _Frame:
    """Where the terms of a sum of products land.

    A product takes n factors from each group (elements, n), and the
    elements of a group are aligned to their common denominator.  The
    nonzero elements of a group must share one (2pi) power, as the terms of
    a sum must.  ``extra`` is one more factor that is no element: ((2pi)
    power, denominator, even factors).  The products have the power
    ``two_pi`` over ``den`` and at most ``most`` even factors.  The layout is
    the widest of those of the elements unless the products need a wider
    one.
    """

    __slots__ = ("ctx", "layout", "dens", "two_pi", "den", "most")

    def __init__(self, ctx: "Context", groups, extra=(0, 1, 0)):
        power, den, most = extra
        dens, widths = [], []
        for group, n in groups:
            gden = _lcm(*(x._den for x in group))
            dens.append(gden)
            power += n * _one_power(x._power for x in group if x._nums)
            den, most = den * gden ** n, most + n * max(x._most for x in group)
            widths += [x._layout.width for x in group]
        self.ctx, self.dens, self.two_pi, self.den, self.most = ctx, dens, power, den, most
        self.layout = ctx._layout(max(most.bit_length(), *widths))

    def align(self, x: "GradedElement", group: int = 0) -> dict:
        """The numerators of x, an element of the group, in this frame."""
        return _aligned(x, self.layout, self.dens[group])

    def element(self, nums: dict, deg: int = None) -> "GradedElement":
        """The element of the numerators ``nums`` of products."""
        return _element(self.ctx, self.layout, nums, self.den, self.two_pi, self.most, deg)


def _aligned(x: "GradedElement", layout: _Layout, den: int = None) -> dict:
    """The numerators of x keyed by ``layout`` and over ``den``; x's own
    dict when nothing changes.  The caller picks a layout and denominator
    that hold x."""
    nums, src = x._nums, x._layout
    f = den // x._den if den else 1
    if src is layout:
        return nums if f == 1 else {k: v * f for k, v in nums.items()}
    odd, emask, top = src.odd, src.even_mask, src.tshift - 2
    moved = {0: 0}  # even fields in src -> in layout
    out = {}
    for key, v in nums.items():
        e = key & emask
        fields = moved.get(e)
        if fields is None:
            fields = moved[e] = layout.fields(src.even(e))
        # the i field and the t-degree move together, on top
        out[key & odd | fields | (key >> top) << layout.tshift - 2] = v * f
    return out


def _combine(ctx: "Context", signed) -> "GradedElement":
    """The sum of sign * x over the (x, sign) pairs, sign 1 or -1: the terms
    of each in order after those of the ones before."""
    signed = [(x, sign) for x, sign in signed if x._nums]
    if not signed:
        return ctx.zero()
    if len(signed) == 1 and signed[0][1] == 1:
        return signed[0][0]
    xs = [x for x, _ in signed]
    frame = _Frame(ctx, [(xs, 1)])
    acc = None
    for x, sign in signed:
        nums = frame.align(x)
        if acc is None:
            acc = dict(nums) if sign > 0 else {k: -v for k, v in nums.items()}
            continue
        for k, v in nums.items():
            c = acc.get(k, 0) + (v if sign > 0 else -v)
            if c:
                acc[k] = c
            else:
                del acc[k]
    if not acc:
        return ctx.zero()
    degs = {x._deg for x in xs}
    return frame.element(acc, degs.pop() if len(degs) == 1 else None)


def _t_block(x: "GradedElement", spacing: int):
    """(i, part) for the lowest i with terms of t-degree in
    [spacing * i, spacing * (i + 1)), the part being those terms with t
    lowered by spacing * i; None for zero."""
    if not x._nums:
        return None
    i = (min(x._nums) >> x._layout.tshift) // spacing  # t is the top field
    low = spacing * i
    return i, _t_map(x, {d: (d - low, ONE) for d in range(low, low + spacing)})


def _product(a: dict, b: dict, layout: _Layout, acc: dict = None, scale: int = 1) -> dict:
    """scale * a * b on {key: numerator} dicts, summed into ``acc`` (a new
    dict by default) pair by pair, the terms of ``a`` outermost.  It is the
    one kernel that multiplies terms: products, derivations (D(g) times
    dx/dg), brackets and ``evaluate`` all go through it, and the sign rule
    below is stated nowhere else.

    The sign of a pair counts the odd factors of the second key below each
    odd factor of the first.  Modulo 2 that is the popcount of the second
    key against the xor of the masks below each odd factor of the first,
    which is worked out once per term of ``a``.  A term of ``a`` with an i
    part meets the i parts of ``b`` with 2 i taken off their keys and their
    numerators negated (i * i = -1); that changes no odd bit.
    """
    if acc is None:
        acc = {}
    odd, i = layout.odd, layout.i
    turned = None  # b for the i parts of a
    for k1, c1 in a.items():
        o1 = bits = k1 & odd
        below = 0
        while bits:
            low = bits & -bits
            bits ^= low
            below ^= low - 1
        pairs, c1 = b.items(), c1 * scale
        if k1 & i:
            if turned is None:
                turned = [(k2 - 2 * i, -c2) if k2 & i else (k2, c2) for k2, c2 in b.items()]
            pairs = turned
        for k2, c2 in pairs:
            if k2 & o1:
                continue
            key = k1 + k2
            c = (-c1 if (k2 & below).bit_count() & 1 else c1) * c2 + acc.get(key, 0)
            if c:
                acc[key] = c
            else:
                del acc[key]
    return acc


def _decode(x) -> dict:
    """{Monomial: Scalar} of the stored form of x, a GradedElement, each
    monomial at the position of its first part."""
    layout, den, power = x._layout, x._den, x._power
    odd, emask, ts, i = layout.odd, layout.even_mask, layout.tshift, layout.i
    parts = {}  # key of a monomial -> [re, im]
    for key, v in x._nums.items():
        parts.setdefault(key & ~i, [0, 0])[1 if key & i else 0] = v
    evens = {0: ()}  # even fields -> even multiset
    out = {}
    for key, (re, im) in parts.items():
        fields = key & emask
        even = evens.get(fields)
        if even is None:
            even = evens[fields] = layout.even(fields)
        out[_tuple_new(Monomial, (key & odd, even, key >> ts))] = _scalar(re, im, den, power)
    return out


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class GradedElement:
    """Sparse sum of signed monomials with Scalar coefficients.

    The stored form is the one the kernels read.  ``_nums`` maps the key of
    each term (``_Layout``) to an integer numerator over the one denominator
    ``_den``, and every term has the one (2pi) power ``_power``.  The real
    part and the i part of a coefficient are terms of their own, the i part
    keyed with the i field set.  ``_most`` bounds the even factors of a
    term, and the layout's field width holds it.  ``_deg`` is the form
    degree once known to be one.

    ``terms`` is the decoded {Monomial: Scalar}, read-only, built on first
    read and kept, each monomial at the position of its first part.
    Values are immutable by convention, so elements are safe to share.
    """

    __slots__ = ("ctx", "_layout", "_nums", "_den", "_power", "_most", "_deg", "_terms")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Scalar]):
        items = [(m, c) for m, c in terms.items() if c]
        den, power = _common([c for _, c in items])
        most = max((len(m[1]) for m, _ in items), default=0)
        degs = {m[0].bit_count() + 2 * len(m[1]) for m, _ in items}
        layout = ctx._layout(most.bit_length())
        nums = {}
        for (o, e, t), c in items:
            fields = layout.fields(e)
            if o > layout.odd:
                raise ContextError("monomial with odd factors outside its context")
            for p, k in _numerators(c, den):
                nums[o | fields | layout.i * p | t << layout.tshift] = k
        self.ctx, self._layout, self._nums, self._den, self._power = ctx, layout, nums, den, power
        self._most, self._deg, self._terms = most, degs.pop() if len(degs) == 1 else None, None

    @property
    def terms(self) -> Mapping:
        if self._terms is None:
            self._terms = MappingProxyType(_decode(self))
        return self._terms

    def _check(self, other: "GradedElement") -> None:
        if self.ctx is not other.ctx:
            raise ContextError("elements belong to different generator contexts")

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def t_free(self) -> bool:
        return not self._nums or not max(self._nums) >> self._layout.tshift

    def degrees(self) -> set:
        if self._deg is not None and self._nums:
            return {self._deg}
        layout = self._layout
        degs = {(key & layout.odd).bit_count() + 2 * len(layout.even(key & layout.even_mask))
                for key in self._nums}
        if len(degs) == 1:
            self._deg = next(iter(degs))
        return degs

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self):
        """Form degree of a homogeneous element; None for zero."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ContractError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    @property
    def term_count(self) -> int:
        """The number of monomials: an i part whose real part is stored too
        adds none.  Nothing is decoded."""
        i, nums = self._layout.i, self._nums
        return len(nums) - sum(1 for key in nums if key & i and key ^ i in nums)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, ZERO)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        return _combine(self.ctx, ((self, 1), (other, 1)))

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        return _combine(self.ctx, ((self, 1), (other, -1)))

    def __neg__(self) -> "GradedElement":
        return self.scale(-1)

    def scale(self, scalar) -> "GradedElement":
        scalar = Scalar._coerce(scalar)
        if scalar.is_zero or self.is_zero:
            return self.ctx.zero()
        if scalar.is_one:
            return self
        if scalar._im:
            top = max(self._nums) >> self._layout.tshift
            return _t_map(self, {d: (d, scalar) for d in range(top + 1)})
        r = scalar._re
        return _reduce(_element(self.ctx, self._layout, {k: v * r for k, v in self._nums.items()},
                                self._den * scalar._den, self._power + scalar.two_pi,
                                self._most, self._deg))

    def __mul__(self, other):
        """The wedge product, or the scalar multiple by a number."""
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ctx.zero()
        frame = _Frame(self.ctx, [((self,), 1), ((other,), 1)])
        acc = _product(frame.align(self), frame.align(other, 1), frame.layout)
        deg = None if self._deg is None or other._deg is None else self._deg + other._deg
        return _reduce(frame.element(acc, deg))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def times_t(self, power: int = 1) -> "GradedElement":
        """Multiply by t**power (shifts every t-degree)."""
        if power == 0 or self.is_zero:
            return self
        if power < 0:
            raise ContractError("negative t powers are not representable")
        step = power << self._layout.tshift
        return _element(self.ctx, self._layout, {k + step: v for k, v in self._nums.items()},
                        self._den, self._power, self._most, self._deg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        if self.ctx is not other.ctx or len(self._nums) != len(other._nums):
            return False
        if self is other or not self._nums:
            return True
        if self._power != other._power:
            return False
        frame = _Frame(self.ctx, [((self, other), 1)])
        return frame.align(self) == frame.align(other)

    def __hash__(self):
        raise TypeError("GradedElement is not hashable")

    def sorted_terms(self):
        # decoded for this call only, unless terms was read and kept
        terms = self._terms if self._terms is not None else _decode(self)
        return sorted(terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

    def leading_term_str(self) -> str:
        """Render one term, for witnesses in check reports."""
        if self.is_zero:
            return "0"
        mono, coeff = self.sorted_terms()[0]
        return render_term(self.ctx, mono, coeff)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = [render_term(self.ctx, m, c) for m, c in self.sorted_terms()]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return self.render()


def render_monomial(ctx: Context, mono: Monomial) -> str:
    parts = [ctx.generator(g).label for g in mono.odd]
    parts += [ctx.generator(g).label for g in mono.even]
    if mono.t_deg == 1:
        parts.append("t")
    elif mono.t_deg > 1:
        parts.append(f"t^{mono.t_deg}")
    return "*".join(parts) if parts else "1"


def render_term(ctx: Context, mono: Monomial, coeff: Scalar) -> str:
    mono_str = render_monomial(ctx, mono)
    if mono_str == "1":
        return coeff.render()
    if coeff.is_one:
        return mono_str
    if coeff == Scalar(-1):
        return "-" + mono_str
    return f"{coeff.render()}*{mono_str}"


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

# The terms of x that a derivation reads before it takes its products.  Over
# all of x at once, the partials of every term would be alive together, and
# the contributions that cancel, which come from different generators, would
# meet only at the end: at so12/so11, d(integrand) peaked at 503 MB RSS that
# way, against 212 MB in blocks of 256 terms.
_BLOCK = 256


class Derivation:
    """Graded derivation fixed by generator images.

    ``degree`` +1 raises the form degree (exterior-derivative style), -1
    lowers it (interior-product style).  Each image must be zero or
    homogeneous of the generator degree shifted by ``degree``; missing
    generators map to zero.  The graded Leibniz rule
    ``D(ab) = D(a) b + (-1)^(degree*|a|) a D(b)`` fixes the extension, so
    that D(x) is the sum over the generators g of D(g) * dx/dg (see
    ``__call__``).
    """

    __slots__ = ("ctx", "degree", "images", "_extra", "_tables")

    def __init__(self, ctx: Context, images: Mapping[int, GradedElement], degree: int):
        if degree not in (1, -1):
            raise ContractError("derivation degree must be +1 or -1")
        checked = {}
        for gid, img in images.items():
            gen = ctx.generator(gid)
            if img.ctx is not ctx:
                raise ContextError("derivation image over a different context")
            if img.is_zero:
                continue
            want = gen.degree + degree
            if not img.is_homogeneous or img.degree() != want:
                raise ContractError(
                    f"image of {gen.label} must be homogeneous of degree {want}"
                )
            checked[gid] = img
        self.ctx = ctx
        self.degree = degree
        self.images = checked
        self._tables = {}  # layout width -> image table
        # the images as the extra factor of a _Frame, whose even factors
        # replace one even factor of the term; like the terms of a sum, they
        # share one (2pi) power
        self._extra = None
        if checked:
            imgs = checked.values()
            self._extra = (_one_power(img._power for img in imgs),
                           _lcm(*(img._den for img in imgs)),
                           max(0, *(img._most - (ctx.generator(g).degree == 2)
                                    for g, img in checked.items())))

    def _table(self, layout: _Layout) -> tuple:
        """(factor unit -> image numerators, odd mask with images, even
        fields with images) in ``layout``, the unit of a factor being its
        bit or its field's 1 and the images over their one denominator.
        Kept per width."""
        table = self._tables.get(layout.width)
        if table is None:
            den, fill = self._extra[1], (1 << layout.width) - 1
            images, odd_with, even_with = {}, 0, 0
            for gid, img in self.images.items():
                if self.ctx.generator(gid).is_odd:
                    unit = 1 << gid
                    odd_with |= unit
                else:
                    unit = layout.units[gid]
                    even_with |= unit * fill
                images[unit] = _aligned(img, layout, den)
            table = self._tables[layout.width] = images, odd_with, even_with
        return table

    def __call__(self, x: GradedElement) -> GradedElement:
        """D(x) as the sum over the factors g with an image of D(g) * dx/dg.

        D is odd, so it moves to a factor g past the |a| odd factors a
        before g with the sign (-1)^|a|.  For odd g, D(g) is even and
        D(a g b) holds (-1)^|a| a D(g) b = D(g) (-1)^|a| a b.  For even g at
        exponent n, D(g^n) = n g^(n-1) D(g) with D(g) odd, and moving it
        back to the front past a undoes the sign.  So the partial dx/dg of
        a term is its key less g's unit, signed by the parity of the odd
        factors below g when g is odd and times n when g is even, and
        ``_product`` multiplies D(g) into it with the signs of the odd
        factors of D(g) and i * i = -1.  The terms of x are read as stored,
        in blocks of ``_BLOCK``; within a block the partials are taken in
        the order their generators are first met.
        """
        if x.ctx is not self.ctx:
            raise ContextError("element over a different context")
        if x.is_zero or self._extra is None:
            return self.ctx.zero()
        frame = _Frame(self.ctx, [((x,), 1)], self._extra)
        layout = frame.layout
        images, odd_with, even_with = self._table(layout)
        units = layout.units
        evens = {}  # even fields with images -> ((unit, exponent), ...)
        acc = {}
        terms = iter(frame.align(x).items())
        while block := list(islice(terms, _BLOCK)):
            partials = {}  # unit of g -> {key of the rest: numerator of dx/dg}
            for key, c in block:
                bits = key & odd_with
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    below = (key & bit - 1).bit_count() & 1
                    partials.setdefault(bit, {})[key ^ bit] = -c if below else c
                fields = key & even_with
                if fields:
                    even = evens.get(fields)
                    if even is None:
                        even = evens[fields] = tuple(
                            (units[g], n) for g, n in Counter(layout.even(fields)).items())
                    for unit, n in even:
                        partials.setdefault(unit, {})[key - unit] = c * n
            for unit, partial in partials.items():
                _product(images[unit], partial, layout, acc)
        deg = None if x._deg is None else x._deg + self.degree
        return _reduce(frame.element(acc, deg))


# ---------------------------------------------------------------------------
# Calculus in t
# ---------------------------------------------------------------------------

def _t_map(x: GradedElement, table: dict) -> GradedElement:
    """The terms of x of t-degree d moved to t-degree e and multiplied by
    the Scalar s, for table[d] = (e, s); the terms of a t-degree without an
    entry or with a zero factor are dropped.  The factors are read as
    numerators over one denominator, at their one (2pi) power.  Terms that
    meet are summed in order: the products with the real parts of the
    factors first, then those with their i parts."""
    table = {d: (e, s) for d, (e, s) in table.items() if s}
    if x.is_zero or not table:
        return x.ctx.zero()
    den, power = _common([s for _, s in table.values()])
    frame = _Frame(x.ctx, [((x,), 1)], (power, den, 0))
    ts, i = frame.layout.tshift, frame.layout.i
    nums, acc = frame.align(x), {}
    for part in 0, 1:
        # t-degree -> (key step, numerator) of this part of its factor
        moves = {d: (((e - d) << ts) + i * p, k) for d, (e, s) in table.items()
                 for p, k in _numerators(s, den) if p == part}
        if not moves:
            continue
        for k, v in nums.items():
            move = moves.get(k >> ts)
            if move is None:
                continue
            step, m = move
            if part and k & i:  # i * i = -1
                step, m = step - 2 * i, -m
            k += step
            c = v * m + acc.get(k, 0)
            if c:
                acc[k] = c
            else:
                del acc[k]
    return _reduce(frame.element(acc, x._deg))


def integrate_unit_interval(x: GradedElement) -> GradedElement:
    """Integrate every coefficient polynomial in t over [0, 1], exactly: the
    term of t-degree d is divided by d + 1."""
    top = max(x._nums, default=0) >> x._layout.tshift
    return _t_map(x, {d: (0, Scalar(Fraction(1, d + 1))) for d in range(top + 1)})


def substitute_t(x: GradedElement, value: Scalar) -> GradedElement:
    """Evaluate every coefficient polynomial at t = value: the term of
    t-degree d times value ** d.  A value at a (2pi) power would put the
    t-degrees at different powers, so it is refused."""
    value = Scalar._coerce(value)
    if value.two_pi:
        raise ContractError(f"substitute_t takes a value without (2pi) powers, not {value}")
    top = max(x._nums, default=0) >> x._layout.tshift
    return _t_map(x, {d: (0, value ** d) for d in range(top + 1)})


def t_derivative(x: GradedElement) -> GradedElement:
    """Formal d/dt on coefficient polynomials."""
    top = max(x._nums, default=0) >> x._layout.tshift
    return _t_map(x, {d: (d - 1, Scalar(d)) for d in range(1, top + 1)})
