"""Invariant polynomials stored as polarized symmetric tensors.

A degree-k polynomial lives as a map from sorted basis k-tuples to scalar
values, together with a global prefactor.  Evaluation on Lie-valued forms is
the multilinear sum over basis multi-indices with the wedge product supplying
all graded signs; repeated even-degree arguments are grouped and counted by
multinomials, which keeps the sum sharp for sparse tensors such as the
Pfaffian.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from .algebra import (
    ContextError,
    ContractError,
    GradedElement,
    ONE,
    Scalar,
    ZERO,
    UNIT_MONO,
    _Numerators,
    _acc_add,
    _decode,
    _encoding,
    _gmul,
    _json_int,
    _json_list,
    _product,
)
from .lie import LieAlgebra, _sparse

__all__ = [
    "InvariantPolynomial",
    "evaluate",
    "symmetrized_trace",
    "pfaffian",
    "invariant_from_dict",
]


class InvariantPolynomial:
    """Polarized degree-k symmetric tensor on a Lie algebra basis."""

    __slots__ = ("algebra", "degree", "values", "prefactor")

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
        self.values = table
        self.prefactor = prefactor if isinstance(prefactor, Scalar) else Scalar(prefactor)

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

        Each stored entry is pushed forward through the preimages of
        [e_x, -]: an entry at s feeds every tuple s - b + a for which
        [e_x, e_a] has a component c on e_b, with weight c times the value
        times the multiplicity of a in that tuple.  Only the tuples reached
        can carry a residue, and the smallest one with a nonzero residue is
        the first a scan of all sorted tuples in lexicographic order finds.
        """
        algebra = self.algebra
        for x in range(algebra.dim):
            preimages = {}
            for a in range(algebra.dim):
                for b, coeff in algebra.bracket_on_basis(x, a):
                    preimages.setdefault(b, []).append((a, coeff))
            residues = {}
            for stup, v in self.values.items():
                for b in set(stup):
                    pre = preimages.get(b)
                    if pre is None:
                        continue
                    rest = list(stup)
                    rest.remove(b)
                    for a, coeff in pre:
                        tup = tuple(sorted(rest + [a]))
                        _acc_add(residues, tup, coeff * v * (rest.count(a) + 1))
            if residues:
                tup = min(residues)
                return x, tup, residues[tup]
        return None

    def __repr__(self) -> str:
        return (f"InvariantPolynomial(degree={self.degree}, "
                f"{len(self.values)} entries)")


def _orderings(part) -> int:
    """Number of distinct arrangements of a sorted tuple."""
    n = factorial(len(part))
    for _, grp in itertools.groupby(part):
        n //= factorial(sum(1 for _ in grp))
    return n


# Split plans by shape: (group sizes, run lengths of the sorted tuple, the
# groups each run may go to) -> ((parts, weight), ...).  They depend on
# nothing else, so all calls share them.
_PLANS: dict = {}


def _split_plan(sizes, runs, masks) -> tuple:
    """Distinct ways to deal the runs of a sorted tuple out to groups of the
    given sizes, run r going only to the groups set in ``masks[r]``.

    Each split is (parts, weight): part g lists the run index of each of its
    entries in ascending order, and weight counts the distinct orderings of
    the entries within every group, prod_g sizes[g]! / prod_r taken[g][r]!.
    """
    # (parts, room left per group, weight)
    splits = [(((),) * len(sizes), sizes, prod(map(factorial, sizes)))]
    for r, (count, mask) in enumerate(zip(runs, masks)):
        grown = []
        for parts, room, weight in splits:
            caps = [n if mask >> g & 1 else 0 for g, n in enumerate(room)]
            later = sum(caps)
            deals = [((), count)]
            for cap in caps:  # leave no more than the later groups can take
                later -= cap
                deals = [(deal + (t,), left - t) for deal, left in deals
                         for t in range(max(0, left - later), min(cap, left) + 1)]
            grown += [(tuple(p + (r,) * t for p, t in zip(parts, deal)),
                       tuple(n - t for n, t in zip(room, deal)),
                       weight // prod(map(factorial, deal))) for deal, _ in deals]
        splits = grown
    return tuple((parts, weight) for parts, _, weight in splits)


def evaluate(P: InvariantPolynomial, args) -> GradedElement:
    """Polarized evaluation: sum over basis multi-indices of
    P(e_{a_1}, ..., e_{a_k}) args_1^{a_1} wedge ... wedge args_k^{a_k},
    times the prefactor.

    Each stored tuple is split over the argument groups by the plan of its
    shape.  One call builds each group product, and each product of the
    groups before the last, once; the last factor goes straight into the sum.

    The components of group g are integer numerators over a denominator D_g,
    and the values times the prefactor over D_P.  Every split gives group g
    exactly size_g factors, so every term has the denominator
    D_P * prod_g D_g^size_g and the numerators simply add.
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

    # Group repeated even-degree arguments (they commute with everything);
    # odd-degree arguments stay as singleton slots in their original order.
    groups = []  # [form, count]
    group_of = {}
    for f in args:
        gi = group_of.get(id(f))
        if gi is not None:
            groups[gi][1] += 1
        else:
            if f.degree % 2 == 0:
                group_of[id(f)] = len(groups)
            groups.append([f, 1])
    sizes = tuple(cnt for _, cnt in groups)
    forms = [_Numerators({a: f.components[a].terms for a in f.support()})
             for f, _ in groups]
    pre = P.prefactor
    if pre.is_zero or not all(f.elements for f in forms):
        return ctx.zero()
    values = _Numerators({stup: {UNIT_MONO: v if pre.is_one else v * pre}
                          for stup, v in P.values.items()})
    # a tuple's splits take at most k! orderings, each once
    factors = [values] + [f for f, n in zip(forms, sizes) for _ in range(n)]
    layout, shift, unit = _encoding(ctx, factors, factorial(P.degree) * len(P.values))
    both = shift if any(f.imag for f in forms) else 0  # Gaussian products

    mask_of = {}  # basis index -> the groups whose form is nonzero there
    products = []  # per group: part -> product of its components over part
    for gi, f in enumerate(forms):
        products.append({(a,): nums for a, nums in f.encode(layout, shift, unit).items()})
        for a in f.elements:
            mask_of[a] = mask_of.get(a, 0) | 1 << gi
    prefixes = {}  # (id(prefix), group, part) -> prefix * group product

    def group_product(gi, part):
        memo = products[gi]
        elem = memo.get(part)
        if elem is None:
            # extend the longest product already built, one factor a step
            cut = len(part) - 1
            while cut > 1 and part[:cut] not in memo:
                cut -= 1
            elem = memo[part[:cut]]
            for end in range(cut, len(part)):
                elem = memo[part[:end + 1]] = _product(elem, memo[(part[end],)], layout,
                                                       both)
        return elem

    last = len(groups) - 1
    acc = {}
    for stup, value in values.encode(layout, shift, unit).items():
        vals = sorted(set(stup))
        masks = tuple(mask_of.get(a, 0) for a in vals)
        if not all(masks):
            continue
        shape = (sizes, tuple(map(stup.count, vals)), masks)
        plan = _PLANS.get(shape)
        if plan is None:
            plan = _PLANS[shape] = _split_plan(*shape)
        value_at = vals.__getitem__
        # the key of the value's (2pi) power above the lowest, as a t-degree
        (step, val), = value.items()
        for parts, weight in plan:
            prefix = None
            for gi in range(last):
                part = tuple(map(value_at, parts[gi]))
                if prefix is None:
                    prefix = group_product(gi, part)
                else:
                    key = (id(prefix), gi, part)
                    piece = prefixes.get(key)
                    if piece is None:
                        piece = prefixes[key] = _product(
                            prefix, group_product(gi, part), layout, both)
                    prefix = piece
                if not prefix:
                    break
            else:
                piece = group_product(last, tuple(map(value_at, parts[last])))
                if step:
                    piece = {k + step: c for k, c in piece.items()}
                coeff = val * weight
                if prefix is not None:
                    _product(prefix, piece, layout, both, acc, coeff)
                    continue
                for k, c in piece.items():
                    c = (_gmul(c, coeff, both) if both else c * coeff) + acc.get(k, 0)
                    if c:
                        acc[k] = c
                    else:
                        del acc[k]
    den, power = values.den, values.low
    for f, n in zip(forms, sizes):
        den, power = den * f.den ** n, power + f.low * n
    return GradedElement(ctx, _decode(layout, acc, den, power, shift, unit),
                         _canonical=True)


def symmetrized_trace(algebra: LieAlgebra, k: int) -> InvariantPolynomial:
    """Average of trace(M_{a_sigma(1)} ... M_{a_sigma(k)}) over permutations.

    Each closed walk of length k through the nonzero matrix entries adds its
    product to trace(M_word) for the word of matrices it steps through.  The
    permutations of a sorted tuple give each distinct word prod m_i! times
    among k!, so the average is the sum over words divided by the number of
    distinct arrangements.
    """
    if algebra.matrices is None:
        raise ContractError("symmetrized trace needs a matrix realization")
    steps: dict = {}  # row -> [(column, matrix index, entry)]
    for a, M in enumerate(algebra.matrices):
        for (i, j), v in _sparse(M).items():
            steps.setdefault(i, []).append((j, a, v))
    sums: dict = {}
    # depth first, with the walks still to extend on a stack
    for start in steps if k >= 1 else ():  # InvariantPolynomial refuses 0
        stack = [(start, (), ONE)]
        while stack:
            at, word, prod = stack.pop()
            closing = len(word) + 1 == k
            for j, a, v in steps.get(at, ()):
                if not closing:
                    stack.append((j, word + (a,), prod * v))
                elif j == start:
                    _acc_add(sums, tuple(sorted(word + (a,))), prod * v)
    values = {
        tup: sums[tup] * Scalar(Fraction(1, _orderings(tup)))
        for tup in sorted(sums)
    }
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
