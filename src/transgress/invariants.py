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
from math import factorial

from .algebra import (
    ContextError,
    ContractError,
    GradedElement,
    ONE,
    Scalar,
    ZERO,
    _acc_add,
    _json_int,
    _json_list,
)
from .lie import LieAlgebra, _sparse

__all__ = [
    "InvariantPolynomial",
    "evaluate",
    "apply_to_coordinates",
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


def _multiset_splits(items, sizes, supports):
    """Distinct ways to split the sorted tuple into parts of the given sizes,
    each part drawn from the corresponding support set.  Yields tuples of
    sorted tuples."""
    distinct = sorted(set(items))
    counts = [sum(1 for x in items if x == v) for v in distinct]
    r = len(sizes)
    parts = [[] for _ in range(r)]
    remaining = list(sizes)

    def distribute(vi):
        if vi == len(distinct):
            yield tuple(tuple(p) for p in parts)
            return
        v, cnt = distinct[vi], counts[vi]

        def assign(gi, left):
            if gi == r - 1:
                if left <= remaining[gi] and (left == 0 or v in supports[gi]):
                    parts[gi].extend([v] * left)
                    remaining[gi] -= left
                    yield from distribute(vi + 1)
                    remaining[gi] += left
                    if left:
                        del parts[gi][-left:]
                return
            top = min(left, remaining[gi])
            for take in range(top + 1):
                if take and v not in supports[gi]:
                    continue
                parts[gi].extend([v] * take)
                remaining[gi] -= take
                yield from assign(gi + 1, left - take)
                remaining[gi] += take
                if take:
                    del parts[gi][len(parts[gi]) - take:]

        yield from assign(0, cnt)

    yield from distribute(0)


def evaluate(P: InvariantPolynomial, args) -> GradedElement:
    """Polarized evaluation: sum over basis multi-indices of
    P(e_{a_1}, ..., e_{a_k}) args_1^{a_1} wedge ... wedge args_k^{a_k},
    times the prefactor."""
    args = list(args)
    if len(args) != P.degree:
        raise ContractError(
            f"polynomial of degree {P.degree} applied to {len(args)} arguments")
    for f in args:
        if f.algebra is not P.algebra:
            raise ContextError("argument over a different Lie algebra")
    ctx = args[0].ctx
    for f in args:
        if f.ctx is not ctx:
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

    supports = [set(f.support()) for f, _ in groups]
    if any(not s for s in supports):
        return ctx.zero()
    sizes = [cnt for _, cnt in groups]
    memos = [dict() for _ in groups]

    def group_product(gi, part):
        memo = memos[gi]
        elem = memo.get(part)
        if elem is None:
            comps = groups[gi][0].components
            if len(part) == 1:
                elem = comps[part[0]]
            else:
                elem = group_product(gi, part[:-1]) * comps[part[-1]]
            memo[part] = elem
        return elem

    acc = {}
    for stup, val in P.values.items():
        for parts in _multiset_splits(stup, sizes, supports):
            count = 1
            for part in parts:
                count *= _orderings(part)
            elem = None
            for gi, part in enumerate(parts):
                piece = group_product(gi, part)
                elem = piece if elem is None else elem * piece
            if elem.is_zero:
                continue
            coeff = val * count
            for mono, c in elem.terms.items():
                _acc_add(acc, mono, c * coeff)
    result = GradedElement(ctx, acc, _canonical=True)
    if not P.prefactor.is_one:
        result = result.scale(P.prefactor)
    return result


def apply_to_coordinates(P: InvariantPolynomial, coords) -> Scalar:
    """P(A, ..., A) for an algebra element with the given basis coordinates."""
    coords = [c if isinstance(c, Scalar) else Scalar(c) for c in coords]
    total = ZERO
    for stup, val in P.values.items():
        prod = Scalar(_orderings(stup))
        for a in stup:
            prod = prod * coords[a]
            if prod.is_zero:
                break
        if prod.is_zero:
            continue
        total = total + val * prod
    return total * P.prefactor


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

    def walk(start, at, word, prod):
        for j, a, v in steps.get(at, ()):
            if len(word) + 1 < k:
                walk(start, j, word + (a,), prod * v)
            elif j == start:
                _acc_add(sums, tuple(sorted(word + (a,))), prod * v)

    if k >= 1:  # InvariantPolynomial refuses degree 0
        for start in steps:
            walk(start, start, (), ONE)
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
