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
from fractions import Fraction
from math import gcd as _gcd, lcm as _lcm
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

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
        if isinstance(value, int):
            return _make(int(value), 0, 1, 0)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator, 0)
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
        if ad == bd:
            re, im, den = ar + br, ai + bi, ad
        else:
            re, im, den = ar * bd + br * ad, ai * bd + bi * ad, ad * bd
        if not re and not im:
            return ZERO
        if den != 1:
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
        if not ai and not bi:
            re = ar * br
            if not re:
                return ZERO
            den = self._den * other._den
            if den != 1:
                g = _gcd(re, den)
                if g != 1:
                    re, den = re // g, den // g
            return _make(re, 0, den, self.two_pi + other.two_pi)
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
        if not im:
            return _make(den if re > 0 else -den, 0, abs(re), -self.two_pi)
        re, im, norm = den * re, -den * im, re * re + im * im
        g = _gcd(re, im, norm)
        return _make(re // g, im // g, norm // g, -self.two_pi)

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
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                other = Scalar._coerce(other)
            else:
                return NotImplemented
        return (
            self._re == other._re
            and self._im == other._im
            and self._den == other._den
            and self.two_pi == other.two_pi
        )

    def __hash__(self) -> int:
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
        return GradedElement(self, {}, _canonical=True)

    def one(self) -> "GradedElement":
        return GradedElement(self, {UNIT_MONO: ONE}, _canonical=True)

    def scalar(self, value) -> "GradedElement":
        value = Scalar._coerce(value)
        if value.is_zero:
            return self.zero()
        return GradedElement(self, {UNIT_MONO: value}, _canonical=True)

    def gen(self, gid: int) -> "GradedElement":
        g = self._gens[gid]
        mono = Monomial(1 << gid, (), 0) if g.is_odd else Monomial(0, (gid,), 0)
        return GradedElement(self, {mono: ONE}, _canonical=True)

    # Randomized elements for property tests and self-checks.
    def random_element(self, rng, terms: int = 3, max_odd: int = 2,
                       max_even: int = 1, max_t: int = 1) -> "GradedElement":
        odd_ids, even_ids = self.odd_ids, self.even_ids
        acc = {}
        for _ in range(terms):
            n_odd = rng.randint(0, min(max_odd, len(odd_ids)))
            odd = sum(1 << g for g in rng.sample(odd_ids, n_odd)) if n_odd else 0
            n_even = rng.randint(0, max_even) if even_ids else 0
            even = tuple(sorted(rng.choices(even_ids, k=n_even))) if n_even else ()
            coeff = Scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            mono = Monomial(odd, even, rng.randint(0, max_t))
            _acc_add(acc, mono, coeff)
        return GradedElement(self, acc)

    def __repr__(self) -> str:
        return f"Context({len(self.odd_ids)} odd, {len(self.even_ids)} even)"


def _acc_add(acc: dict, mono: Monomial, coeff: Scalar) -> None:
    cur = acc.get(mono)
    if cur is None:
        if not coeff.is_zero:
            acc[mono] = coeff
        return
    new = cur + coeff
    if new.is_zero:
        del acc[mono]
    else:
        acc[mono] = new


def _mono_sort_key(m: Monomial):
    return (m.degree, m.t_deg, m.odd, m.even)


# ---------------------------------------------------------------------------
# Integer numerators for the kernels
# ---------------------------------------------------------------------------

class _Layout:
    """Monomials of one context packed into one int, called a key.

    Bit g holds odd generator g, as in ``odd_mask``.  Above the odd bits sit
    one exponent field of ``width`` bits per even generator, in
    ``ctx.even_ids`` order, and the t-degree on top.  The product of two
    monomials with disjoint odd parts is then the sum of their keys, as long
    as no exponent passes 2**width - 1, so each kernel picks the width from
    the largest even count it can reach (``_encoding``).  ``Context`` keeps
    one layout per width.
    """

    __slots__ = ("width", "odd", "even_mask", "units", "ids", "tshift")

    def __init__(self, ctx: "Context", width: int):
        n_odd = max(ctx.odd_ids, default=-1) + 1
        ids = ctx.even_ids
        self.width = width
        self.odd = (1 << n_odd) - 1
        self.tshift = n_odd + len(ids) * width
        self.even_mask = (1 << self.tshift) - 1 ^ self.odd
        self.units = {g: 1 << n_odd + i * width for i, g in enumerate(ids)}
        self.ids = ids

    def even(self, fields: int) -> tuple:
        """The sorted even multiset of the even fields of a key."""
        width, ids = self.width, self.ids
        one = (1 << width) - 1
        fields >>= self.odd.bit_length()
        even = ()
        while fields:
            i = ((fields & -fields).bit_length() - 1) // width
            n = fields >> i * width & one
            fields ^= n << i * width
            even += (ids[i],) * n
        return even


class _Numerators:
    """The coefficients of some elements as integer numerators over their
    common denominator ``den``, for kernels that make one int product and one
    dict update per term operation and one Scalar per output term.

    ``encode`` gives each element as {key: int}, with the monomial packed
    by a ``_Layout``.  Gaussian data is packed as re + (im << shift), with
    ``shift`` past the bit length of any part a call can reach: the packing
    is linear, so sums and products with a real int act on both parts, and
    the int is 0 exactly when both parts are (``_gmul`` multiplies two packed
    numbers).  When the (2pi) powers differ, each power above ``low`` goes
    into the t-degree in multiples of ``unit``, past any t-degree a call can
    reach; products add t-degrees as they add powers, and ``_decode`` splits
    the two again.  ``_encoding`` picks the layout, ``shift`` and ``unit``.
    """

    __slots__ = ("elements", "den", "imag", "low", "high", "even")

    def __init__(self, elements: dict):
        coeffs = [c for terms in elements.values() for c in terms.values()]
        powers = {c.two_pi for c in coeffs} or {0}
        self.elements = elements
        self.den = _lcm(*{c._den for c in coeffs})
        self.imag = any(c._im for c in coeffs)
        self.low, self.high = min(powers), max(powers)
        # the largest number of even factors of one term
        self.even = max((len(m[1]) for terms in elements.values() for m in terms),
                        default=0)

    def encode(self, layout: _Layout, shift: int = 0, unit: int = 0) -> dict:
        den, low = self.den, self.low
        odd, units, tshift = layout.odd, layout.units, layout.tshift
        evens = {(): 0}  # even multiset -> its fields
        out = {}
        for name, terms in self.elements.items():
            nums = out[name] = {}
            for (o, e, t), c in terms.items():
                fields = evens.get(e)
                if fields is None:
                    try:
                        fields = evens[e] = sum(map(units.__getitem__, e))
                    except KeyError:
                        raise ContextError(f"monomial with even factors {e} "
                                           "outside its context") from None
                if o > odd:
                    raise ContextError("monomial with odd factors outside its context")
                if c.two_pi != low:
                    t += (c.two_pi - low) * unit
                f = den // c._den
                nums[o | fields | t << tshift] = c._re * f + (c._im * f << shift)
        return out


def _encoding(ctx: "Context", factors, scale: int = 1) -> tuple:
    """(layout, shift, unit) for sums of at most ``scale`` products that
    take one element of each of ``factors``; ``shift`` and ``unit`` are 0
    where no packing or shifting is needed."""
    shift = unit = 0
    if any(f.imag for f in factors):
        bound = scale  # times the largest |re| + |im| sum of each factor
        for f in factors:
            bound *= max((sum((abs(c._re) + abs(c._im)) * (f.den // c._den)
                              for c in terms.values()) for terms in f.elements.values()),
                         default=0)
        shift = bound.bit_length() + 1
    if any(f.low != f.high for f in factors):
        unit = 1 + sum(max((m[2] for terms in f.elements.values() for m in terms), default=0)
                       for f in factors)
    return ctx._layout(sum(f.even for f in factors).bit_length()), shift, unit


def _gmul(a: int, b: int, shift: int) -> int:
    """The product of two packed Gaussian integers."""
    half = 1 << shift - 1
    ai, bi = (a + half) >> shift, (b + half) >> shift
    ar, br = a - (ai << shift), b - (bi << shift)
    return ar * br - ai * bi + ((ar * bi + ai * br) << shift)


def _product(a: dict, b: dict, layout: _Layout, both: int = 0, acc: dict = None,
             scale: int = 1) -> dict:
    """scale * a * b on {key: numerator} dicts, summed into ``acc`` (a new
    dict by default) pair by pair, the terms of ``a`` outermost.
    ``both`` is the packing shift when both sides hold Gaussian numbers,
    whose products need ``_gmul``, and 0 otherwise.

    The sign of a pair counts the odd factors of the second key below each
    odd factor of the first.  Modulo 2 that is the popcount of the second
    key against the xor of the masks below each odd factor of the first,
    which is worked out once per term of ``a``.
    """
    if acc is None:
        acc = {}
    odd = layout.odd
    for k1, c1 in a.items():
        o1 = bits = k1 & odd
        below = 0
        while bits:
            low = bits & -bits
            bits ^= low
            below ^= low - 1
        if both:
            c1 = _gmul(c1, scale, both)
            pairs, c1 = [(k2, _gmul(c1, c2, both)) for k2, c2 in b.items()], 1
        else:
            pairs, c1 = b.items(), c1 * scale
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


def _decode(layout: _Layout, acc: dict, den: int, power: int, shift: int = 0,
            unit: int = 0) -> dict:
    """{Monomial: Scalar} from {key: numerator over ``den``} at (2pi) power
    ``power``, in the order of ``acc``.  Terms that differ only in their power
    would be a sum of scalars with different powers, which is refused."""
    half = 1 << shift - 1 if shift else 0
    odd, even_mask, tshift, even_of = layout.odd, layout.even_mask, layout.tshift, layout.even
    evens = {0: ()}  # even fields -> even multiset
    out = {}
    for key, v in acc.items():
        fields = key & even_mask
        even = evens.get(fields)
        if even is None:
            even = evens[fields] = even_of(fields)
        p = power
        t = key >> tshift
        if unit:
            q, t = divmod(t, unit)
            p += q
        mono = _tuple_new(Monomial, (key & odd, even, t))
        if unit and mono in out:
            raise ContractError(f"cannot add scalars with different (2pi) "
                                f"powers: {out[mono].two_pi} vs {p}")
        im = (v + half) >> shift if shift else 0
        re = v - (im << shift)
        g = _gcd(re, im, den)
        out[mono] = _make(re // g, im // g, den // g, p)
    return out


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class GradedElement:
    """Sparse sum of signed monomials with Scalar coefficients.

    Values are immutable by convention: no method mutates ``terms`` after
    construction, so elements are safe to share.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Scalar],
                 _canonical: bool = False):
        if not _canonical:
            terms = {m: c for m, c in terms.items() if not c.is_zero}
        self.ctx = ctx
        self.terms = dict(terms) if not isinstance(terms, dict) else terms

    def _check(self, other: "GradedElement") -> None:
        if self.ctx is not other.ctx:
            raise ContextError("elements belong to different generator contexts")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {m.degree for m in self.terms}

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
        return len(self.terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self.terms.get(mono, ZERO)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            _acc_add(acc, m, c)
        return GradedElement(self.ctx, acc, _canonical=True)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(
            self.ctx, {m: -c for m, c in self.terms.items()}, _canonical=True
        )

    def scale(self, scalar) -> "GradedElement":
        scalar = Scalar._coerce(scalar)
        if scalar.is_zero or self.is_zero:
            return self.ctx.zero()
        if scalar.is_one:
            return self
        return GradedElement(
            self.ctx, {m: c * scalar for m, c in self.terms.items()}, _canonical=True
        )

    def __mul__(self, other):
        """The wedge product, or the scalar multiple by a number.

        Terms that meet on one monomial with different (2pi) powers are
        refused only when both powers survive in the product."""
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.ctx.zero()
        a, b = _Numerators({0: self.terms}), _Numerators({0: other.terms})
        layout, shift, unit = _encoding(self.ctx, (a, b))
        acc = _product(a.encode(layout, shift, unit)[0], b.encode(layout, shift, unit)[0],
                       layout, shift if a.imag and b.imag else 0)
        out = _decode(layout, acc, a.den * b.den, a.low + b.low, shift, unit)
        return GradedElement(self.ctx, out, _canonical=True)

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
        return GradedElement(
            self.ctx,
            {Monomial(m.odd_mask, m.even, m.t_deg + power): c
             for m, c in self.terms.items()},
            _canonical=True,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        raise TypeError("GradedElement is not hashable")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

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

class Derivation:
    """Graded derivation fixed by generator images.

    ``degree`` +1 raises the form degree (exterior-derivative style), -1
    lowers it (interior-product style).  Each image must be zero or
    homogeneous of the generator degree shifted by ``degree``; missing
    generators map to zero.  The graded Leibniz rule
    ``D(ab) = D(a) b + (-1)^(degree*|a|) a D(b)`` fixes the extension.
    """

    __slots__ = ("ctx", "degree", "images", "_table", "_plain", "_only")

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
        self._table = None  # numerators of the images
        self._plain = {}  # layout width -> images encoded without packing
        self._only = None  # (odd mask, even ids) with images, unless all have one

    def _images(self, layout: _Layout, shift: int, unit: int) -> dict:
        """gid -> (unit of its even field or None, image terms), each term
        (key, odd part, xor of the masks below its odd factors, 1 if it has
        an even number of odd factors, numerator)."""
        images = self._plain.get(layout.width) if not (shift or unit) else None
        if images is None:
            images = {}
            odd, units = layout.odd, layout.units
            for gid, terms in self._table.encode(layout, shift, unit).items():
                slot = []
                for key, c in terms.items():
                    o = bits = key & odd
                    below = 0
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        below ^= low - 1
                    slot.append((key, o, below, ~o.bit_count() & 1, c))
                images[gid] = units.get(gid), slot
            if not (shift or unit):
                self._plain[layout.width] = images
        return images

    def __call__(self, x: GradedElement) -> GradedElement:
        """Apply the Leibniz rule in one pass per image term.

        A slot is one factor with an image: ``(image, rest, pos)``, with
        ``rest`` the key of the monomial without that factor and ``pos`` the
        number of odd factors before it.  The operator moves past those
        ``pos`` factors, then each odd factor b of the image term moves to
        its place in the rest, which takes ``pos + popcount(rest below b)``
        transpositions.  Modulo 2 the ``pos`` terms cancel for an image term
        with an odd number of odd factors, and the popcounts add up to one
        against the xor of the masks below each b, worked out once per image
        term.  The product of the rest and an image term is the sum of their
        keys.

        Coefficients are integer numerators (``_Numerators``); those of the
        images are read on the first call.
        """
        if x.ctx is not self.ctx:
            raise ContextError("element over a different context")
        if self._table is None:
            self._table = _Numerators({gid: img.terms for gid, img in self.images.items()})
            ctx = self.ctx
            if len(self.images) < len(ctx.generators):
                odd = {g for g in self.images if ctx.generator(g).is_odd}
                self._only = sum(1 << g for g in odd), frozenset(self.images) - odd
        table = self._table
        terms = x.terms
        if self._only is not None:  # the terms with a factor that has an image
            odd, even = self._only
            terms = {m: c for m, c in terms.items()
                     if m[0] & odd or not even.isdisjoint(m[1])}
        source = _Numerators({0: terms})
        # a term has one slot per factor at most, so at most ``degree`` slots
        most = max((m.degree for m in terms), default=0) if source.imag or table.imag else 1
        layout, shift, unit = _encoding(self.ctx, (source, table), most)
        images = self._images(layout, shift, unit)
        both = shift if source.imag and table.imag else 0  # Gaussian products
        acc = {}
        for (odd, even, _), (key, coeff) in zip(terms, source.encode(layout, shift, unit)[0].items()):
            slots = []
            pos = 0
            bits = odd
            while bits:
                low = bits & -bits
                bits ^= low
                img = images.get(low.bit_length() - 1)
                if img is not None:
                    slots.append((img[1], key ^ low, pos))
                pos += 1
            for gid in even:
                img = images.get(gid)
                if img is not None:
                    slots.append((img[1], key - img[0], pos))
            for img, rest, pos in slots:
                if both:
                    pairs, mult = [(k, o, b, n, _gmul(coeff, c, both))
                                   for k, o, b, n, c in img], 1
                else:
                    pairs, mult = img, coeff
                for k2, o2, below, moves, c2 in pairs:
                    if o2 & rest:
                        continue
                    k2 += rest
                    # the product is nonzero, so a new key gets a nonzero entry
                    c = ((-mult if (pos & moves) + (rest & below).bit_count() & 1 else mult)
                         * c2 + acc.get(k2, 0))
                    if c:
                        acc[k2] = c
                    else:
                        del acc[k2]
        out = _decode(layout, acc, source.den * table.den, source.low + table.low, shift, unit)
        return GradedElement(self.ctx, out, _canonical=True)


# ---------------------------------------------------------------------------
# Calculus in t
# ---------------------------------------------------------------------------

def integrate_unit_interval(x: GradedElement) -> GradedElement:
    """Integrate every coefficient polynomial in t over [0, 1], exactly."""
    acc = {}
    for mono, coeff in x.terms.items():
        _acc_add(acc, Monomial(mono.odd_mask, mono.even, 0), coeff / (mono.t_deg + 1))
    return GradedElement(x.ctx, acc, _canonical=True)


def substitute_t(x: GradedElement, value: Scalar) -> GradedElement:
    """Evaluate every coefficient polynomial at t = value."""
    value = Scalar._coerce(value)
    acc = {}
    for mono, coeff in x.terms.items():
        _acc_add(acc, Monomial(mono.odd_mask, mono.even, 0), coeff * value ** mono.t_deg)
    return GradedElement(x.ctx, acc, _canonical=True)


def t_derivative(x: GradedElement) -> GradedElement:
    """Formal d/dt on coefficient polynomials."""
    acc = {}
    for mono, coeff in x.terms.items():
        if mono.t_deg == 0:
            continue
        _acc_add(acc, Monomial(mono.odd_mask, mono.even, mono.t_deg - 1), coeff * mono.t_deg)
    return GradedElement(x.ctx, acc, _canonical=True)
