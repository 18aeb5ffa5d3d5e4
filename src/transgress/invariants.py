"""Invariant polynomials stored as polarized symmetric tensors.

A degree-k polynomial lives as a map from sorted basis k-tuples to scalar
values, together with a global prefactor.  Evaluation on Lie-valued forms is
the multilinear sum over basis multi-indices with the wedge product supplying
all graded signs.  It contracts one slot at a time, summing the residual
tensors that land on one rest of a tuple, and counts the copies of a
repeated even argument by the orderings of each rest, which keeps the sum
sharp for sparse tensors such as the Pfaffian.  Rests that share a prefix
are summed before the prefix's components multiply them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import (
    ContextError,
    ContractError,
    GradedElement,
    ONE,
    Scalar,
    ZERO,
    _Frame,
    _common,
    _json_int,
    _json_list,
    _numerators,
    _product,
    _reduce,
    _scalar,
)
from .lie import LieAlgebra, _GeneratedSpan

__all__ = [
    "InvariantPolynomial",
    "evaluate",
    "symmetrized_trace",
    "pfaffian",
    "invariant_from_dict",
]


class InvariantPolynomial:
    """Polarized degree-k symmetric tensor on a Lie algebra basis."""

    __slots__ = ("algebra", "degree", "values", "prefactor", "_table")

    def __init__(self, algebra: LieAlgebra, degree: int, values,
                 prefactor: Scalar = ONE):
        if degree < 1:
            raise ContractError("polynomial degree must be at least 1")
        table = {}
        for key, v in values.items():
            key = tuple(key)
            if len(key) != degree:
                raise ContractError(f"key {key} is not a {degree}-tuple")
            if tuple(sorted(key)) != key:
                raise ContractError(f"key {key} is not sorted")
            if any(not 0 <= a < algebra.dim for a in key):
                raise ContractError(f"key {key} out of range")
            v = v if isinstance(v, Scalar) else Scalar(v)
            if not v.is_zero:
                table[key] = v
        self.algebra = algebra
        self.degree = degree
        self.prefactor = prefactor if isinstance(prefactor, Scalar) else Scalar(prefactor)
        # a zero polynomial keeps no values, whichever factor is zero
        self.values = table if self.prefactor else {}
        self._table = None

    def _numerator_table(self) -> tuple:
        """The values as integer numerators over one denominator, read on
        first use and kept: (that denominator, their one (2pi) power,
        {sorted tuple: the nonzero parts (part, numerator)}), with part 0
        for the real part and 1 for the i part."""
        if self._table is None:
            den, power = _common(self.values.values())
            self._table = den, power, {stup: _numerators(v, den)
                                       for stup, v in self.values.items()}
        return self._table

    def value(self, indices) -> Scalar:
        """Value on an arbitrary basis tuple (sorted internally)."""
        return self.values.get(tuple(sorted(indices)), ZERO)

    def scaled(self, s) -> "InvariantPolynomial":
        s = s if isinstance(s, Scalar) else Scalar(s)
        return InvariantPolynomial(self.algebra, self.degree, self.values,
                                   self.prefactor * s)

    def ad_invariance_witness(self):
        """First (direction, tuple, residue) violating infinitesimal
        ad-invariance, or None.  The residue at a sorted tuple is
        sum_i P(a_1, ..., [e_x, e_{a_i}], ..., a_k).

        The directions are walked in basis order.  When the table is a Lie
        bracket (``LieAlgebra._bracket_failures`` is empty), x -> x.P is a
        representation, so the directions that leave P invariant form a
        subalgebra.  A direction in the span of the subalgebra generated by
        the directions already passed cannot fail and is skipped, and the
        walk stops once that span is the whole algebra.  The first failing
        direction, and so the witness, is the one a walk over every
        direction finds.
        """
        algebra = self.algebra
        span = None if algebra._bracket_failures else _GeneratedSpan(algebra)
        for x in range(algebra.dim):
            if span is not None:
                if span.full:
                    break
                if x in span:
                    continue
            residues = _direction_residues(self, x)
            if residues:
                tup = min(residues)
                return x, tup, residues[tup]
            if span is not None:
                span.add(x)
        return None

    def __repr__(self) -> str:
        return (f"InvariantPolynomial(degree={self.degree}, "
                f"{len(self.values)} entries)")


def _direction_residues(P: InvariantPolynomial, x: int) -> dict:
    """The nonzero residues of the direction e_x, {sorted tuple: residue}.

    Each stored entry is pushed forward through the preimages of [e_x, -]:
    an entry at s feeds every tuple s - b + a for which [e_x, e_a] has a
    component c on e_b, with weight c times the value times the
    multiplicity of a in that tuple.  Only the tuples reached can carry a
    residue, and the smallest one with a nonzero residue is the first a scan
    of all sorted tuples in lexicographic order finds.

    The constants are read as numerators over D_c and the values, at their
    one (2pi) power, over D_P, so the residues are sums of numerators over
    D_c D_P.  Each part of a value meets each part of a constant, and
    i * i = -1.
    """
    algebra = P.algebra
    if not P.values:
        return {}
    cden, constants = algebra._constants
    vden, power, table = P._numerator_table()
    preimages = {}
    for a in range(algebra.dim):
        for b, p, k in constants.get((x, a), ()):
            preimages.setdefault(b, []).append((a, p, k))
    residues = {}, {}  # part -> {sorted tuple: numerator}
    for stup, parts in table.items():
        for b in set(stup):
            pre = preimages.get(b)
            if pre is None:
                continue
            rest = list(stup)
            rest.remove(b)
            for a, p, k in pre:
                tup = tuple(sorted(rest + [a]))
                k *= rest.count(a) + 1
                for q, v in parts:
                    acc = residues[p ^ q]
                    c = (-k if p & q else k) * v + acc.get(tup, 0)
                    if c:
                        acc[tup] = c
                    else:
                        del acc[tup]
    re, im = residues
    return {tup: _scalar(re.get(tup, 0), im.get(tup, 0), cden * vden, power)
            for tup in re.keys() | im.keys()}


def _orderings(part) -> int:
    """Number of distinct arrangements of a sorted tuple."""
    n, run = factorial(len(part)), 1
    for i in range(1, len(part)):  # divide by 1, 2, ..., m along each run of m
        run = run + 1 if part[i] == part[i - 1] else 1
        n //= run
    return n


def evaluate(P: InvariantPolynomial, args) -> GradedElement:
    """Polarized evaluation: sum over basis multi-indices of
    P(e_{a_1}, ..., e_{a_k}) args_1^{a_1} wedge ... wedge args_k^{a_k},
    times the prefactor.

    The even argument that fills the most slots, if two or more, takes the
    last slots (the first such argument on a tie); even forms commute, so
    this changes no sign.  Every other slot is contracted in slot order:
    the residual tensor {sorted rest: numerators} becomes
    {rest - a: residual * y^a} over the distinct a of each rest, and
    residuals that land on one rest are summed.  The n copies of the last
    argument then add orderings(rest) * residual * prod_a y^a for each rest
    left, sums before products (Horner): walked in sorted order, each rest
    adds orderings(rest) * residual * y^(rest[-1]) into the sum of its
    prefix, and once the walk leaves a prefix p, p's sum is multiplied by
    y^(p[-1]) into the sum of p[:-1].  The sums sit on a stack, as recursion
    overflows the interpreter's stack at high degree.

    The components of each argument are read as integer numerators over
    their common denominator D_f, the values over D_P (``_numerator_table``)
    and the prefactor over its own denominator D_0: one integer factor of
    the last products when it is real, and a factor of each value first
    when it is Gaussian.  Every term takes one factor per slot, so every
    term has the denominator D_0 * D_P * prod_f D_f^(slots of f) and the
    numerators simply add.
    """
    args = list(args)
    if len(args) != P.degree:
        raise ContractError(
            f"polynomial of degree {P.degree} applied to {len(args)} arguments")
    if any(f.algebra is not P.algebra for f in args):
        raise ContextError("argument over a different Lie algebra")
    ctx = args[0].ctx
    if any(f.ctx is not ctx for f in args):
        raise ContextError("arguments over different generator contexts")

    forms = {}  # id -> [form, slots it fills], in order of first slot
    for f in args:
        forms.setdefault(id(f), [f, 0])[1] += 1
    comps = [{a: f.components[a] for a in f.support()} for f, _ in forms.values()]
    pre = P.prefactor
    if not P.values or not all(comps):
        return ctx.zero()
    last, n = args[-1], 1
    for f, count in forms.values():
        if count > n and f.degree % 2 == 0:
            last, n = f, count
    slots = args[:-1] if n == 1 else [f for f in args if f is not last]

    vden, power, table = P._numerator_table()
    pden, ppower = _common([pre])
    frame = _Frame(ctx, [(list(cs.values()), count)
                         for cs, (_, count) in zip(comps, forms.values())],
                   (power + ppower, vden * pden, 0))
    layout = frame.layout
    ys = {i: {a: frame.align(c, gi) for a, c in cs.items()}
          for gi, (i, cs) in enumerate(zip(forms, comps))}

    ikey = layout.i
    factor = {ikey * p: k for p, k in _numerators(pre, pden)}
    residuals = {stup: {ikey * p: v for p, v in parts} for stup, parts in table.items()}
    scale = 1
    if ikey in factor:  # a Gaussian prefactor multiplies each value first
        residuals = {stup: _product(r, factor, layout) for stup, r in residuals.items()}
    else:  # a real one is the integer scale of the last products
        scale = factor[0]
    for f in slots:
        y, grown = ys[id(f)], {}
        for rest in list(residuals):
            r = residuals.pop(rest)
            for i, a in enumerate(rest):
                if a in y and (not i or a != rest[i - 1]):
                    _product(r, y[a], layout, grown.setdefault(rest[:i] + rest[i + 1:], {}))
        residuals = {rest: r for rest, r in grown.items() if r}

    y, prev = ys[id(last)], ()
    sums = [{}]  # sums[j]: the rests walked that start with rest[:j], less rest[:j]'s y^a
    for rest in sorted(rest for rest in residuals if y.keys() >= set(rest)) + [()]:
        j = 0  # () ends the walk: it shares no prefix
        while j < min(len(rest), len(prev)) - 1 and rest[j] == prev[j]:
            j += 1
        while len(sums) > j + 1:  # leave prev[:i] for i > j, into the sum of prev[:i - 1]
            done = sums.pop()
            _product(done, y[prev[len(sums) - 1]], layout, sums[-1])
        if rest:
            sums += [{} for _ in rest[j + 1:]]
            _product(residuals.pop(rest), y[rest[-1]], layout, sums[-1],
                     _orderings(rest) * scale)
        prev = rest
    return _reduce(frame.element(sums[0], sum(f.degree for f in args)))


def symmetrized_trace(algebra: LieAlgebra, k: int) -> InvariantPolynomial:
    """Average of trace(M_{a_sigma(1)} ... M_{a_sigma(k)}) over permutations.

    Each closed walk of length k through the nonzero matrix entries adds its
    product to trace(M_word) for the word of matrices it steps through.  The
    permutations of a sorted tuple give each distinct word prod m_i! times
    among k!, so the average is the sum over words divided by the number of
    distinct arrangements.  The walks multiply the numerators of the
    realization, so a word's sum is over its denominator to the k.  A walk
    carries the part of its product, and i * i = -1.
    """
    r = algebra._realization
    if r is None:
        raise ContractError("symmetrized trace needs a matrix realization")
    steps: dict = {}  # row -> [(column, matrix index, part, numerator)]
    for a, M in enumerate(r.mats):
        for (i, j, p), v in M.items():
            steps.setdefault(i, []).append((j, a, p, v))
    sums: dict = {}  # sorted word -> [re, im]
    # depth first, with the walks still to extend on a stack
    for start in steps if k >= 1 else ():  # InvariantPolynomial refuses 0
        stack = [(start, (), 0, 1)]
        while stack:
            at, word, part, prod = stack.pop()
            closing = len(word) + 1 == k
            for j, a, p, v in steps.get(at, ()):
                v *= -prod if part & p else prod
                if not closing:
                    stack.append((j, word + (a,), part ^ p, v))
                elif j == start:
                    sums.setdefault(tuple(sorted(word + (a,))), [0, 0])[part ^ p] += v
    den = r.den ** k
    values = {tup: _scalar(re, im, den * _orderings(tup), 0)
              for tup, (re, im) in sorted(sums.items()) if re or im}
    return InvariantPolynomial(algebra, k, values)


def invariant_from_dict(algebra: LieAlgebra, data: dict) -> InvariantPolynomial:
    """User-supplied polarized tensor: ``degree``, ``values`` as pairs of
    [sorted integer index list, exact scalar string or integer], optional
    ``prefactor``.  Anything of another JSON type is rejected with a
    ContractError."""
    if not isinstance(data, dict):
        raise ContractError("a polynomial file must hold a JSON object")
    unknown = set(data) - {"degree", "values", "prefactor"}
    if unknown:
        raise ContractError(f"unknown keys in polynomial file: {sorted(unknown)}")
    degree = _json_int(data.get("degree"), "degree")
    if degree < 1:
        raise ContractError("degree must be a positive integer")
    values = {}
    for item in _json_list(data.get("values", []), "values"):
        if not isinstance(item, list) or len(item) != 2:
            raise ContractError(f"value entry must be [indices, scalar]: {item!r}")
        key, raw = item
        key = tuple(_json_int(i, "tensor index") for i in _json_list(key, "indices"))
        if key in values:
            raise ContractError(f"duplicate value for {list(key)}")
        values[key] = Scalar.from_json(raw)
    prefactor = Scalar.from_json(data.get("prefactor", "1"))
    return InvariantPolynomial(algebra, degree, values, prefactor)


def _perfect_matchings(points: tuple):
    """Signed perfect matchings of an ascending tuple of points.

    Yields (pairs, sign): ``pairs`` lists each pair (smaller, larger) in the
    order the points were matched, and ``sign`` is the sign of the
    permutation that lists the pairs one after the other, which is
    (-1)^(crossings).  The smallest unmatched point is paired with each
    later one in turn; the points skipped between the two are matched later,
    each with a partner beyond the pair (a crossing) or inside it (no net
    sign).
    """
    if not points:
        yield (), 1
        return
    first = points[0]
    for pos in range(1, len(points)):
        flip = -1 if pos % 2 == 0 else 1
        rest = points[1:pos] + points[pos + 1:]
        for pairs, sign in _perfect_matchings(rest):
            yield ((first, points[pos]),) + pairs, flip * sign


def pfaffian(algebra: LieAlgebra) -> InvariantPolynomial:
    """The scaled Pfaffian on so(2k), polarized over the pair basis.

    Convention: the full permutation sum over {1, ..., n} of
    eps(i) A_{i1 i2} ... A_{i_{n-1} i_n}, with prefactor
    (-1)^k / (2^k k!) and the unit (2*pi)^(-k).  The overcounting of the
    permutation sum is absorbed by the prefactor.

    The sum is collected over the (n-1)!! perfect matchings instead: each
    one arises from 2^k k! permutations, all of the sign (-1)^(crossings),
    and spreads over the k! orderings of its pairs, so its polarized value
    is 2^k times that sign.  ``_perfect_matchings`` lists them in the order
    in which the permutation sum first meets them.
    """
    if algebra.meta.get("family") != "so":
        raise ContractError("the Pfaffian builder needs a built-in so(n) algebra")
    n = algebra.meta["n"]
    if n % 2:
        raise ContractError("the Pfaffian needs even n")
    k = n // 2
    pair_index = {pair: idx for idx, pair in enumerate(algebra.meta["pairs"])}

    values = {}
    for pairs, sign in _perfect_matchings(tuple(range(n))):
        values[tuple(sorted(pair_index[p] for p in pairs))] = Scalar(sign * 2 ** k)
    prefactor = Scalar(Fraction((-1) ** k, (2 ** k) * factorial(k)), two_pi=k)
    return InvariantPolynomial(algebra, k, values, prefactor)
