"""Independent reference implementations used as test oracles."""

import itertools
import random
import re as re_module
from collections.abc import Mapping
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Union

from transgress.algebra import (
    ContextError,
    ContractError,
    Derivation,
    GradedElement,
    HALF,
    Monomial,
    ONE,
    Scalar,
    ZERO,
    _BLOCK,
    _acc_add,
    permutation_sign,
)
from transgress.invariants import (
    InvariantPolynomial,
    _orderings,
    evaluate,
    pfaffian,
    symmetrized_trace,
)
from transgress.lie import (
    LieAlgebra,
    LieValuedForm,
    ReductiveSplit,
    ValidationFailure,
    ValidationReport,
    so_algebra,
    so_subalgebra_split,
    structure_from_matrices,
)
from transgress.transgression import (
    _check_poly_setup,
    _finish,
    coefficient_A,
    double_factorial,
)
from transgress.weil import UniversalSetup


# ---------------------------------------------------------------------------
# Elements from generator words
# ---------------------------------------------------------------------------

def sort_word_with_sign(word):
    """Sort a word of odd generator ids, tracking the transposition parity.

    Returns (sign, sorted tuple), or (0, None) when an id repeats.
    """
    items = list(word)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return 0, None
    return sign, tuple(items)


def from_word(ctx, word, coeff=ONE, t_power: int = 0) -> GradedElement:
    """Element of ``ctx`` from an arbitrary generator word, recording the
    odd sign."""
    coeff = Scalar._coerce(coeff)
    odd_word = []
    evens = []
    for gid in word:
        (odd_word if ctx.generator(gid).is_odd else evens).append(gid)
    sign, odd = sort_word_with_sign(odd_word)
    if odd is None or coeff.is_zero:
        return ctx.zero()
    if sign < 0:
        coeff = -coeff
    mono = Monomial(sum(1 << g for g in odd), tuple(sorted(evens)), t_power)
    return GradedElement(ctx, {mono: coeff})


# ---------------------------------------------------------------------------
# Dense exact matrices (tuples of tuples of Scalar), for the oracles below
# ---------------------------------------------------------------------------

def hermitian_su2() -> LieAlgebra:
    """su(2) in the Hermitian basis of the Pauli matrices, whose structure
    constants [S_b, S_c] = 2i eps_bca S_a are all imaginary."""
    pauli = [[[0, 1], [1, 0]], [[0, Scalar(0, -1)], [Scalar(0, 1), 0]], [[1, 0], [0, -1]]]
    return LieAlgebra(3, ("S[1]", "S[2]", "S[3]"), structure_from_matrices(pauli), pauli,
                      name="su2-hermitian")


def make_matrix(rows) -> tuple:
    return tuple(tuple(v if isinstance(v, Scalar) else Scalar(v) for v in row) for row in rows)


def mat_sub(A, B):
    return tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(p):
            s = ZERO
            for k in range(m):
                a = A[i][k]
                if a.is_zero:
                    continue
                b = B[k][j]
                if b.is_zero:
                    continue
                s = s + a * b
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(s: Scalar, A):
    return tuple(tuple(s * a for a in row) for row in A)


def mat_commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def mat_trace(A) -> Scalar:
    s = ZERO
    for i in range(len(A)):
        s = s + A[i][i]
    return s


def mat_is_zero(A) -> bool:
    return all(v.is_zero for row in A for v in row)


def naive_evaluate(P, args):
    """Reference polarized evaluation: the full sum over ordered basis
    multi-indices, with no grouping, support pruning, or memoization."""
    ctx = args[0].ctx
    total = ctx.zero()
    for tup in itertools.product(range(P.algebra.dim), repeat=P.degree):
        v = P.value(tup)
        if v.is_zero:
            continue
        prod = ctx.scalar(v)
        for slot, a in enumerate(tup):
            prod = prod * args[slot].components[a]
            if prod.is_zero:
                break
        total = total + prod
    return total.scale(P.prefactor)


# ---------------------------------------------------------------------------
# Polarized evaluation by recursive multiset splits, the reference for the
# plan-driven ``evaluate``, and P(A) on the coordinates of one element
# ---------------------------------------------------------------------------

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


def split_evaluate(P, args):
    """Polarized evaluation with every split of every stored tuple enumerated
    by ``_multiset_splits`` and a recursive group-product memo per call."""
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
    result = GradedElement(ctx, acc)
    if not P.prefactor.is_one:
        result = result.scale(P.prefactor)
    return result


def apply_to_coordinates(P, coords):
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


def covariant_d_tensor(setup):
    """Covariant derivative of the tangential part of the connection."""
    return setup.sub_covariant_d(setup.tensor_form)


def deformed_curvature_expanded(setup):
    """The curvature family assembled from the split pieces:
    sub-curvature + t * covariant-d + (t^2/2) [tensor, tensor]."""
    return (setup.sub_curvature
            + covariant_d_tensor(setup).times_t(1)
            + setup.tensor_bracket.scale(HALF).times_t(2))


def deformed_curvature_interpolated(setup):
    """The curvature family as a straight-line interpolation:
    (1-t) * sub-curvature - (t(1-t)/2) [tensor, tensor] + t * curvature."""
    psi_c = setup.sub_curvature
    tb_half = setup.tensor_bracket.scale(HALF)
    return (psi_c - psi_c.times_t(1)
            - tb_half.times_t(1) + tb_half.times_t(2)
            + setup.curvature.times_t(1))


def dense_ad_invariance_witness(P):
    """Reference ad-invariance gate: the residue at every sorted tuple, for
    every direction, in lexicographic order.  Returns the first
    (direction, tuple, residue) that is nonzero, or None."""
    algebra, k = P.algebra, P.degree
    for x in range(algebra.dim):
        for tup in itertools.combinations_with_replacement(range(algebra.dim), k):
            total = ZERO
            for i in range(k):
                for b, coeff in algebra.bracket_on_basis(x, tup[i]):
                    replaced = tup[:i] + (b,) + tup[i + 1:]
                    v = P.value(replaced)
                    if not v.is_zero:
                        total = total + coeff * v
            if not total.is_zero:
                return x, tup, total
    return None


def interior(setup, h_index: int) -> Derivation:
    """Contraction with the vertical direction of an h-basis element."""
    if h_index not in setup.split.h:
        raise ContractError(f"index {h_index} is not in the subalgebra")
    ctx = setup.context
    return Derivation(ctx, {h_index: ctx.one()}, -1)


def lie_derivative(setup, h_index: int):
    """Cartan's formula d(iota(x)) + iota(d(x)) along an h-basis element,
    with the full d."""
    iota = interior(setup, h_index)
    d = setup.d

    def L(x: GradedElement) -> GradedElement:
        return d(iota(x)) + iota(d(x))

    return L


def without_factors(x: GradedElement, ids) -> GradedElement:
    """The terms of x with none of the odd factors ``ids``."""
    mask = sum(1 << g for g in ids)
    return GradedElement(x.ctx, {m: c for m, c in x.terms.items() if not m.odd_mask & mask})


def cut_differential(setup) -> Derivation:
    """d': d less every image term with an h-connection factor w[a], a in h."""
    return Derivation(setup.context, {g: without_factors(img, setup.split.h)
                                      for g, img in setup.d.images.items()}, +1)


def generated_dimension(algebra, directions) -> int:
    """The dimension of the subalgebra generated by the basis directions:
    their span closed under brackets, by exact Gaussian elimination."""
    rows = []  # (pivot index, row {index: Scalar} with 1 at its pivot)

    def reduce(vec):
        vec = dict(vec)
        for pivot, row in rows:
            f = vec.get(pivot)
            if f:
                for i, v in row.items():
                    _acc_add(vec, i, -f * v)
        return vec

    todo = [{x: ONE} for x in directions]
    added = []
    while todo:
        vec = reduce(todo.pop())
        if not vec:
            continue
        pivot = min(vec)
        inv = vec[pivot].inverse()
        rows.append((pivot, {i: v * inv for i, v in vec.items()}))
        for u in added:
            out = {}
            for b, ub in u.items():
                for c, vc in vec.items():
                    for a, k in algebra.bracket_on_basis(b, c):
                        _acc_add(out, a, ub * vc * k)
            todo.append(out)
        added.append(vec)
    return len(rows)


def literal_basicness(setup, form):
    """(horizontality, invariance) verdicts and witnesses from the literal
    loops: iota_x(form) and L_x(form) = d(iota_x form) + iota_x(d form) for
    every x in h, each stopping at the first nonzero image."""
    verdicts = []
    for name, label, op in (("horizontality", "iota", lambda x: interior(setup, x)),
                            ("invariance", "L", lambda x: lie_derivative(setup, x))):
        verdict = (name, True, "")
        for x in setup.split.h:
            image = op(x)(form)
            if not image.is_zero:
                verdict = (name, False,
                           f"{label}[{x}] -> {image.leading_term_str()}")
                break
        verdicts.append(verdict)
    return verdicts


def jacobi_broken_so4():
    """(set-up, P, y) for so4/so3 with c[2,2,3] raised by 1 and c[2,3,2]
    lowered by 1: still antisymmetric and h still closed, but the Jacobi
    identity fails; P is the trace form and y is P(F) - P(F_h)."""
    algebra = so_algebra(4)
    structure = dict(algebra.structure)
    structure[(2, 2, 3)] = structure.get((2, 2, 3), Scalar(0)) + Scalar(1)
    structure[(2, 3, 2)] = -structure[(2, 2, 3)]
    broken = LieAlgebra(algebra.dim, algebra.labels, structure, algebra.matrices,
                        meta=algebra.meta)
    setup = UniversalSetup(broken, so_subalgebra_split(broken, 3))
    P = symmetrized_trace(broken, 2)
    return setup, P, setup.curvature_difference(P)


def unclosed_so4():
    """(set-up, P, y) for so4 with h = (E01, E02, E03), whose bracket
    [E01, E02] is E12, outside h; P is the trace form and y is the single
    generator w[4]."""
    algebra = so_algebra(4)
    setup = UniversalSetup(algebra, ReductiveSplit.from_h(algebra.dim, (0, 1, 2)))
    return setup, symmetrized_trace(algebra, 2), setup.context.gen(4)


def perm_sign_by_swaps(perm):
    """Permutation parity via explicit adjacent transpositions."""
    items = list(perm)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign


def pfaffian_permutation_sum(matrix):
    """Brute-force scaled Pfaffian of a Scalar skew matrix: the literal
    permutation sum with prefactor (-1)^k / (2^k k!) / (2pi)^k."""
    n = len(matrix)
    assert n % 2 == 0
    k = n // 2
    total = ZERO
    for perm in itertools.permutations(range(n)):
        prod = Scalar(perm_sign_by_swaps(perm))
        for j in range(k):
            prod = prod * matrix[perm[2 * j]][perm[2 * j + 1]]
            if prod.is_zero:
                break
        if prod.is_zero:
            continue
        total = total + prod
    fact_k = 1
    for i in range(2, k + 1):
        fact_k *= i
    from fractions import Fraction

    return total * Scalar(Fraction((-1) ** k, (2 ** k) * fact_k), two_pi=k)


def skew_coordinates(algebra, matrix):
    """Coordinates of a skew matrix in the pair basis of a built-in so(n)."""
    return [matrix[i][j] for (i, j) in algebra.meta["pairs"]]


# ---------------------------------------------------------------------------
# Dense set-up: the structure constants, validation and invariant tensors as
# computed from full matrix products and permutation sums
# ---------------------------------------------------------------------------

def _flatten(A):
    return [v for row in A for v in row]


def _expand_in_basis(basis_vecs, targets):
    """Express each target vector in the given independent basis, exactly.

    Gaussian elimination over the Gaussian rationals; raises ContractError if
    a target is outside the span or the basis is dependent.
    """
    d = len(basis_vecs)
    m = len(basis_vecs[0])
    n_t = len(targets)
    rows = [
        [basis_vecs[j][r] for j in range(d)] + [t[r] for t in targets]
        for r in range(m)
    ]
    pivot_rows = []
    cur = 0
    for col in range(d):
        pivot = None
        for r in range(cur, m):
            if not rows[r][col].is_zero:
                pivot = r
                break
        if pivot is None:
            raise ContractError("matrix basis is linearly dependent")
        rows[cur], rows[pivot] = rows[pivot], rows[cur]
        inv = rows[cur][col].inverse()
        rows[cur] = [v * inv for v in rows[cur]]
        for r in range(m):
            if r == cur:
                continue
            f = rows[r][col]
            if f.is_zero:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[cur])]
        pivot_rows.append(cur)
        cur += 1
    for r in range(cur, m):
        if any(not rows[r][d + t].is_zero for t in range(n_t)):
            raise ContractError("target is outside the span of the basis")
    return [
        [rows[pivot_rows[j]][d + t] for j in range(d)] for t in range(n_t)
    ]


def dense_structure_from_matrices(matrices) -> dict:
    """Structure constants of the span of independent matrices, exactly."""
    d = len(matrices)
    basis_vecs = [_flatten(M) for M in matrices]
    pairs = [(b, c) for b in range(d) for c in range(b + 1, d)]
    targets = [_flatten(mat_commutator(matrices[b], matrices[c])) for b, c in pairs]
    coeff_rows = _expand_in_basis(basis_vecs, targets)
    structure = {}
    for (b, c), coeffs in zip(pairs, coeff_rows):
        for a, v in enumerate(coeffs):
            if v.is_zero:
                continue
            structure[(a, b, c)] = v
            structure[(a, c, b)] = -v
    return structure


def dense_validate(algebra) -> ValidationReport:
    """Check antisymmetry, the Jacobi identity over all dim^3 triples, and
    the matrix realization with dense products.

    Each invariant reports at most its first violating index tuple.
    """
    failures = []

    keys = set(algebra.structure)
    keys |= {(a, c, b) for (a, b, c) in algebra.structure}
    for key in sorted(keys):
        a, b, c = key
        if not (algebra.c(a, b, c) + algebra.c(a, c, b)).is_zero:
            failures.append(ValidationFailure(
                "antisymmetry", key,
                f"c[{a},{b},{c}] + c[{a},{c},{b}] = "
                f"{(algebra.c(a, b, c) + algebra.c(a, c, b)).render()}"))
            break

    jac_done = False
    for b in range(algebra.dim):
        if jac_done:
            break
        for c in range(algebra.dim):
            if jac_done:
                break
            for d in range(algebra.dim):
                acc: dict = {}
                for (pair1, pair2) in (((b, c), d), ((c, d), b), ((d, b), c)):
                    for e, k1 in algebra.bracket_on_basis(*pair1):
                        for a, k2 in algebra.bracket_on_basis(e, pair2):
                            cur = acc.get(a, ZERO) + k1 * k2
                            if cur.is_zero:
                                acc.pop(a, None)
                            else:
                                acc[a] = cur
                if acc:
                    a = sorted(acc)[0]
                    failures.append(ValidationFailure(
                        "jacobi", (a, b, c, d),
                        f"cyclic sum = {acc[a].render()}"))
                    jac_done = True
                    break

    if algebra.matrices is not None:
        done = False
        for b in range(algebra.dim):
            if done:
                break
            for c in range(algebra.dim):
                expected = mat_commutator(algebra.matrices[b], algebra.matrices[c])
                for a, v in algebra.bracket_on_basis(b, c):
                    expected = mat_sub(expected, mat_scale(v, algebra.matrices[a]))
                if not mat_is_zero(expected):
                    failures.append(ValidationFailure(
                        "matrix-realization", (b, c),
                        "commutator does not match the table"))
                    done = True
                    break

    return ValidationReport(not failures, failures)


def symmetrized_trace_permutation_sum(algebra, k):
    """Average of trace(M_{a_sigma(1)} ... M_{a_sigma(k)}) over permutations."""
    if algebra.matrices is None:
        raise ContractError("symmetrized trace needs a matrix realization")
    values = {}
    inv_kfact = Scalar(Fraction(1, factorial(k)))
    for tup in itertools.combinations_with_replacement(range(algebra.dim), k):
        total = ZERO
        for perm in itertools.permutations(tup):
            prod = algebra.matrices[perm[0]]
            for a in perm[1:]:
                prod = mat_mul(prod, algebra.matrices[a])
            total = total + mat_trace(prod)
        v = total * inv_kfact
        if not v.is_zero:
            values[tup] = v
    return InvariantPolynomial(algebra, k, values)


def pfaffian_by_permutations(algebra):
    """The scaled Pfaffian on so(2k), polarized over the pair basis.

    Convention: the full permutation sum over {1, ..., n} of
    eps(i) A_{i1 i2} ... A_{i_{n-1} i_n}, with prefactor
    (-1)^k / (2^k k!) and the unit (2*pi)^(-k).  The overcounting of the
    permutation sum is absorbed by the prefactor.
    """
    if algebra.meta.get("family") != "so":
        raise ContractError("the Pfaffian builder needs a built-in so(n) algebra")
    n = algebra.meta["n"]
    if n % 2:
        raise ContractError("the Pfaffian needs even n")
    k = n // 2
    pair_index = {pair: idx for idx, pair in enumerate(algebra.meta["pairs"])}

    coef: dict = {}
    for perm in itertools.permutations(range(n)):
        sign = permutation_sign(perm)
        idxs = []
        for j in range(k):
            r, s = perm[2 * j], perm[2 * j + 1]
            if r < s:
                idxs.append(pair_index[(r, s)])
            else:
                idxs.append(pair_index[(s, r)])
                sign = -sign
        key = tuple(sorted(idxs))
        coef[key] = coef.get(key, 0) + sign
    values = {
        key: Scalar(Fraction(c, _orderings(key)))
        for key, c in coef.items() if c
    }
    prefactor = Scalar(Fraction((-1) ** k, (2 ** k) * factorial(k)), two_pi=k)
    return InvariantPolynomial(algebra, k, values, prefactor)


def bareiss_determinant(matrix) -> Fraction:
    """Exact determinant of a square Fraction matrix by Bareiss's
    fraction-free elimination, with row swaps for zero pivots."""
    rows = [list(map(Fraction, row)) for row in matrix]
    n = len(rows)
    sign, prev = 1, Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = rows[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                rows[r][c] = (rows[r][c] * p - rows[r][col] * rows[col][c]) / prev
            rows[r][col] = Fraction(0)
        prev = p
    return sign * rows[n - 1][n - 1]


# The Scalar of Fraction parts that the integer-numerator Scalar replaced,
# kept as the oracle it is compared with field by field.
RationalLike = Union[int, Fraction]


class FractionScalar:
    """A Gaussian rational times a formal power of (2*pi)^(-1).

    ``two_pi`` is the exponent of the unit (2*pi)^(-1), so a scalar with
    ``two_pi == k`` stands for ``(re + im*i) / (2*pi)**k``.  Addition demands
    equal unit powers (except against exact zero), multiplication adds them.
    Fractions are kept in lowest terms with positive denominators by the
    Fraction type itself.
    """

    __slots__ = ("re", "im", "two_pi")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, two_pi: int = 0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        if not re and not im:
            two_pi = 0
        self.re = re
        self.im = im
        self.two_pi = two_pi

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_one(self) -> bool:
        return self.re == 1 and not self.im and not self.two_pi

    def __bool__(self) -> bool:
        return not self.is_zero

    @staticmethod
    def _coerce(value) -> "FractionScalar":
        if isinstance(value, FractionScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionScalar(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    def __add__(self, other) -> "FractionScalar":
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.two_pi != other.two_pi:
            raise ContractError(
                f"cannot add scalars with different (2pi) powers: "
                f"{self.two_pi} vs {other.two_pi}"
            )
        return FractionScalar(self.re + other.re, self.im + other.im, self.two_pi)

    __radd__ = __add__

    def __neg__(self) -> "FractionScalar":
        return FractionScalar(-self.re, -self.im, self.two_pi)

    def __sub__(self, other) -> "FractionScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FractionScalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "FractionScalar":
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return FRACTION_ZERO
        if not self.im and not other.im:
            return FractionScalar(self.re * other.re, 0, self.two_pi + other.two_pi)
        return FractionScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.two_pi + other.two_pi,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionScalar":
        if self.is_zero:
            raise ZeroDivisionError("scalar is zero")
        if not self.im:
            return FractionScalar(1 / self.re, 0, -self.two_pi)
        norm = self.re * self.re + self.im * self.im
        return FractionScalar(self.re / norm, -self.im / norm, -self.two_pi)

    def __truediv__(self, other) -> "FractionScalar":
        return self * self._coerce(other).inverse()

    def __pow__(self, n: int) -> "FractionScalar":
        if n < 0:
            return self.inverse() ** (-n)
        out = FRACTION_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionScalar):
            if isinstance(other, (int, Fraction)):
                other = FractionScalar(other)
            else:
                return NotImplemented
        return (
            self.re == other.re
            and self.im == other.im
            and self.two_pi == other.two_pi
        )

    def __hash__(self) -> int:
        # a real scalar at power 0 equals its Fraction, so it hashes like it
        if not self.im and not self.two_pi:
            return hash(self.re)
        return hash((self.re, self.im, self.two_pi))

    @staticmethod
    def parse(text: str) -> "FractionScalar":
        """Parse an exact rational or Gaussian-rational string.

        Accepts forms like ``"3"``, ``"-1/2"``, ``"i"``, ``"3/4i"``,
        ``"1/2+3/4i"``; a unicode minus is tolerated.
        """
        s = text.strip().replace("−", "-").replace(" ", "")
        if not s:
            raise ContractError("empty scalar string")
        parts = re_module.findall(r"[+-]?[^+-]+", s)
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
        return FractionScalar(re_total, im_total)

    @staticmethod
    def from_json(value) -> "FractionScalar":
        """An exact scalar from a JSON value: a string for ``parse`` or an
        integer.  Floats and booleans are refused, since a float is already
        rounded and a boolean is no number."""
        if isinstance(value, str):
            return FractionScalar.parse(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return FractionScalar(value)
        raise ContractError(
            f"scalar {value!r} must be an exact string such as \"1/10\" "
            "or an integer")

    def render(self) -> str:
        """Exact string form; the (2*pi) unit renders as ``(2pi)^-k``."""
        if self.is_zero:
            return "0"
        if not self.im:
            core = str(self.re)
        elif not self.re:
            core = self._imag_str(self.im)
        else:
            sign = "+" if self.im > 0 else "-"
            core = f"({self.re}{sign}{self._imag_str(abs(self.im))})"
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


FRACTION_ZERO = FractionScalar(0)
FRACTION_ONE = FractionScalar(1)


def tp_johnson_by_slots(setup, P, coefficient_fn=None):
    """The explicit double sum with one polarized evaluation per slot
    pattern (i, j): sum of A_ij P(tensor, [tensor,tensor]^i, sub-curv^j,
    curv^(k-i-j-1)), asking ``coefficient_fn`` only for nonzero terms."""
    _check_poly_setup(setup, P)
    if coefficient_fn is None:
        coefficient_fn = coefficient_A
    k = P.degree
    tensor_sq = setup.tensor_bracket
    sub_curv = setup.sub_curvature
    curv = setup.curvature
    form = setup.context.zero()
    for i in range(k):
        for j in range(k - i):
            args = ([setup.tensor_form] + [tensor_sq] * i
                    + [sub_curv] * j + [curv] * (k - 1 - i - j))
            term = evaluate(P, args)
            if term.is_zero:
                continue
            form = form + term.scale(coefficient_fn(k, i, j))
    return _finish(form, "johnson", P)


def tp_chern_euler_by_permutations(setup, P=None):
    """The classical Euler-form transgression on so(2k) over so(2k-1):

        (2pi)^-k  sum_j  (-1)^(j+1) / (2^j j! (2k-2j-1)!!)
                  sum_alpha eps(alpha)
                  W_{a1 a2} ... W_{a_{2j-1} a_{2j}}
                  w_{a_{2j+1} n} ... w_{a_{n-1} n}

    with alpha running over permutations of the first n-1 coordinates and
    the matrix entries read off the generator components.
    """
    algebra = setup.algebra
    if algebra.meta.get("family") != "so":
        raise ContractError("the Euler transgression needs a built-in so(n)")
    n = algebra.meta["n"]
    if n % 2:
        raise ContractError("the Euler transgression needs even n")
    k = n // 2
    pairs = algebra.meta["pairs"]
    pair_index = {pair: idx for idx, pair in enumerate(pairs)}
    expected_h = tuple(idx for idx, (i, j) in enumerate(pairs) if j < n - 1)
    if setup.split.h != expected_h:
        raise ContractError("the splitting must be the standard so(n-1) block")

    dim = algebra.dim
    last = n - 1
    acc = {}
    for j in range(k):
        # Classical alternating sign (-1)^(j+1), with one extra flip per
        # paired connection factor: in this engine's wedge convention the
        # half-bracket block entry is minus the product of the two
        # connection entries, and the j-term carries k-j-1 such pairs.
        weight = Scalar(Fraction(
            (-1) ** (j + 1) * (-1) ** (k - j - 1),
            (2 ** j) * factorial(j) * double_factorial(2 * k - 2 * j - 1)))
        for alpha in itertools.permutations(range(last)):
            sign = permutation_sign(alpha)
            even_part = []
            for m in range(j):
                r, s = alpha[2 * m], alpha[2 * m + 1]
                if r < s:
                    even_part.append(dim + pair_index[(r, s)])
                else:
                    even_part.append(dim + pair_index[(s, r)])
                    sign = -sign
            odd_word = []
            for m in range(2 * j, last):
                odd_word.append(pair_index[(alpha[m], last)])
            sort_sign = permutation_sign(odd_word)
            mono = Monomial(sum(1 << g for g in odd_word), tuple(sorted(even_part)), 0)
            coeff = weight * Scalar(sign * sort_sign)
            _acc_add(acc, mono, coeff)
    form = GradedElement(setup.context, acc).scale(Scalar(1, two_pi=k))
    return _finish(form, "chern", P or pfaffian(setup.algebra))


def random_homogeneous(ctx, rng, degree: int, terms: int = 2,
                       max_t: int = 0, gaussian: bool = False) -> GradedElement:
    """A random element of one form degree over ``ctx``, for property tests;
    ``gaussian`` adds imaginary parts over denominators up to 12."""
    odd_ids, even_ids = ctx.odd_ids, ctx.even_ids
    feasible = [
        n_even for n_even in range(degree // 2 + 1)
        if degree - 2 * n_even <= len(odd_ids) and (n_even == 0 or even_ids)
    ]
    if not feasible:
        raise ContractError(f"no degree-{degree} monomials in this context")
    acc = {}
    for _ in range(terms):
        n_even = rng.choice(feasible)
        n_odd = degree - 2 * n_even
        odd = sum(1 << g for g in rng.sample(odd_ids, n_odd)) if n_odd else 0
        even = tuple(sorted(rng.choices(even_ids, k=n_even))) if n_even else ()
        coeff = Scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        if gaussian:
            coeff = coeff + Scalar(0, Fraction(rng.randint(-3, 3), rng.randint(1, 12)))
        _acc_add(acc, Monomial(odd, even, rng.randint(0, max_t)), coeff)
    return GradedElement(ctx, acc)


def coefficient_A_by_scalars(k: int, i: int, j: int) -> Scalar:
    """``coefficient_A_by_integration`` as it was written on Scalars and
    monomials: expand t^(k-j-1) (1-t)^(i+j) binomially into a t-polynomial,
    integrate it term by term and apply the multinomial weight."""
    if i < 0 or j < 0 or i + j > k - 1:
        raise ContractError(f"indices ({i}, {j}) out of range for degree {k}")
    multinomial = Fraction(
        factorial(k - 1),
        factorial(i) * factorial(j) * factorial(k - i - j - 1))
    # integrand t^(k-j-1) (1-t)^(i+j), expanded binomially
    poly = {}
    m = i + j
    base_power = k - j - 1
    for r in range(m + 1):
        binom = Fraction(factorial(m), factorial(r) * factorial(m - r))
        coeff = Scalar(binom * (-1) ** r)
        _acc_add(poly, Monomial(0, (), base_power + r), coeff)
    integral = Scalar(0)
    for mono, coeff in poly.items():
        integral = integral + coeff / (mono.t_deg + 1)
    return Scalar(k) * Scalar(multinomial) * Scalar(Fraction(-1, 2)) ** i * integral


# ---------------------------------------------------------------------------
# Terms summed part by part, as the engine sums them: the real part and the
# i part of a coefficient are terms of their own, each stored and dropped on
# its own, and a monomial sits at the position of its first part.  The
# oracles below add parts in the order the engine adds them, so that they
# give its order of terms.
# ---------------------------------------------------------------------------

def part_of(c: Scalar, p: int) -> Scalar:
    """The real part of c (p 0) or its i part (p 1), a Scalar at the (2pi)
    power of c."""
    return Scalar(0, c.im, c.two_pi) if p else Scalar(c.re, 0, c.two_pi)


def scalar_parts(c: Scalar) -> list:
    """The nonzero parts of c, the real part first."""
    return [part for part in (part_of(c, 0), part_of(c, 1)) if part]


def _acc_part(parts: dict, mono, part: Scalar) -> None:
    """Add one part of a coefficient into {(monomial, 1 for an i part, else
    0): Scalar}."""
    _acc_add(parts, (mono, 1 if part.im else 0), part)


class PartTerms(Mapping):
    """The terms {monomial: Scalar} of ``parts``, {(monomial, 1 for an i
    part, else 0): Scalar} in the order the parts were stored, each monomial
    at the position of its first part.  Two parts at two (2pi) powers are
    refused, as adding Scalars at two powers is."""

    def __init__(self, parts: dict):
        self.parts = parts
        self._terms = {}
        for (mono, _), c in parts.items():
            self._terms[mono] = self._terms[mono] + c if mono in self._terms else c

    def __getitem__(self, mono):
        return self._terms[mono]

    def __iter__(self):
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)


def stored_parts(terms) -> dict:
    """The parts of ``terms``: those of a ``PartTerms`` in its order, and
    those of a plain term dict each monomial in turn, the real part first,
    as ``GradedElement`` stores them."""
    if isinstance(terms, PartTerms):
        return terms.parts
    parts = {}
    for mono, c in terms.items():
        for part in scalar_parts(c):
            _acc_part(parts, mono, part)
    return parts


# ---------------------------------------------------------------------------
# Tuple monomials: the odd part as an ascending id tuple.  The product and
# the derivation below are the engine's code from before the bitmask
# encoding, on term dicts keyed by ``TupleMonomial`` and summed part by part.
# ---------------------------------------------------------------------------

class TupleMonomial(NamedTuple):
    odd: tuple
    even: tuple
    t_deg: int = 0


def to_tuple_mono(m: Monomial) -> TupleMonomial:
    return TupleMonomial(m.odd, m.even, m.t_deg)


def from_tuple_mono(m: TupleMonomial) -> Monomial:
    return Monomial(sum(1 << g for g in m.odd), m.even, m.t_deg)


def tuple_terms(x: GradedElement) -> PartTerms:
    """The terms of x keyed by tuple monomials, their parts in the order x
    stores them: the order of its keys, an i part keyed with the i field
    set."""
    i = x._layout.i
    monos = dict(zip(dict.fromkeys(key & ~i for key in x._nums), x.terms.items()))
    parts = {}
    for key in x._nums:
        mono, c = monos[key & ~i]
        p = 1 if key & i else 0
        parts[to_tuple_mono(mono), p] = part_of(c, p)
    return PartTerms(parts)


def _merge_odd(o1: tuple, o2: tuple):
    """Merge two ascending odd-id tuples; returns (sign, merged) or (0, None)."""
    if not o1:
        return 1, o2
    if not o2:
        return 1, o1
    i = j = inv = 0
    n1, n2 = len(o1), len(o2)
    out = []
    while i < n1 and j < n2:
        a, b = o1[i], o2[j]
        if a == b:
            return 0, None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            inv += n1 - i
    out.extend(o1[i:])
    out.extend(o2[j:])
    return (-1 if inv & 1 else 1), tuple(out)


def tuple_mono_mul(m1: TupleMonomial, m2: TupleMonomial):
    """Product of canonical monomials; returns (sign, Monomial) or (0, None)."""
    sign, odd = _merge_odd(m1.odd, m2.odd)
    if odd is None:
        return 0, None
    if m1.even and m2.even:
        even = tuple(sorted(m1.even + m2.even))
    else:
        even = m1.even or m2.even
    return sign, TupleMonomial(odd, even, m1.t_deg + m2.t_deg)


def tuple_product(a, b) -> PartTerms:
    """The product loop of ``GradedElement.__mul__`` on term dicts."""
    acc = {}
    for (m1, _), c1 in stored_parts(a).items():
        for (m2, _), c2 in stored_parts(b).items():
            sign, mono = tuple_mono_mul(m1, m2)
            if mono is None:
                continue
            c = c1 * c2
            if sign < 0:
                c = -c
            _acc_part(acc, mono, c)
    return PartTerms(acc)


def tuple_derivation_apply(images: dict, x) -> PartTerms:
    """``Derivation.__call__`` on term dicts; ``images`` maps a generator id
    to the term dict of its image.  A factor g of a term contributes
    prefix * D(g) * suffix at each of its positions, signed by the odd
    factors of the prefix that D moves past, and the contributions are added
    in the kernel's order: blocks of ``_BLOCK`` stored parts of x, then the
    generators in the order a block first meets them, then the terms of
    D(g), then the parts of x that hold g."""
    images = {gid: stored_parts(img) for gid, img in images.items()}
    parts = list(stored_parts(x).items())
    acc = {}
    for start in range(0, len(parts), _BLOCK):
        found = {}  # generator -> [(a part of x, [(prefix, suffix, sign)] of g in it)]
        for (mono, _), coeff in parts[start:start + _BLOCK]:
            odd, even, t_deg = mono
            n_odd = len(odd)
            sandwiches = {}
            for pos in range(n_odd):
                prefix = TupleMonomial(odd[:pos], (), 0)
                suffix = TupleMonomial(odd[pos + 1:], even, t_deg)
                sandwiches.setdefault(odd[pos], []).append((prefix, suffix, -1 if pos & 1 else 1))
            for pos in range(len(even)):
                prefix = TupleMonomial(odd, even[:pos], 0)
                suffix = TupleMonomial((), even[pos + 1:], t_deg)
                sandwiches.setdefault(even[pos], []).append(
                    (prefix, suffix, -1 if n_odd & 1 else 1))
            for g, at in sandwiches.items():
                if g in images:
                    found.setdefault(g, []).append((coeff, at))
        for g, held in found.items():
            for (m2, _), c2 in images[g].items():
                for coeff, at in held:
                    _acc_sandwich(at, m2, coeff * c2, acc)
    return PartTerms(acc)


def _acc_sandwich(at, m2, c, acc) -> None:
    """Add c times the sum of sign * prefix * m2 * suffix over the
    (prefix, suffix, sign) of ``at``, one monomial, into acc."""
    total = mono = None
    for prefix, suffix, sign0 in at:
        s1, ma = tuple_mono_mul(prefix, m2)
        if ma is None:
            continue
        s2, mono = tuple_mono_mul(ma, suffix)
        if mono is None:
            continue
        signed = c if sign0 * s1 * s2 > 0 else -c
        total = signed if total is None else total + signed
    if total:
        _acc_part(acc, mono, total)


def tuple_bracket(x: LieValuedForm, y: LieValuedForm) -> LieValuedForm:
    """``lie.bracket`` with its products taken by ``tuple_product``: the
    product times each part of each constant, the real part first, is added
    into the parts of its component."""
    x._check(y)
    algebra, ctx = x.algebra, x.ctx
    acc = [{} for _ in range(algebra.dim)]
    for b, c in algebra._constants[1]:
        xb = x.components[b]
        if xb.is_zero:
            continue
        yc = y.components[c]
        if yc.is_zero:
            continue
        prod = tuple_product(tuple_terms(xb), tuple_terms(yc))
        for a, k in algebra.bracket_on_basis(b, c):
            for part in scalar_parts(k):
                for (m, _), v in prod.parts.items():
                    _acc_part(acc[a], m, v * part)
    comps = [GradedElement(ctx, {from_tuple_mono(m): v for m, v in PartTerms(parts).items()})
             for parts in acc]
    return LieValuedForm(algebra, ctx, comps, x.degree + y.degree)


# ---------------------------------------------------------------------------
# Linear operations and calculus in t on {Monomial: Scalar} term dicts: the
# engine's code from before elements stored integer numerators, summed part
# by part.
# ---------------------------------------------------------------------------

def terms_add(a, b) -> PartTerms:
    acc = dict(stored_parts(a))
    for (m, _), c in stored_parts(b).items():
        _acc_part(acc, m, c)
    return PartTerms(acc)


def terms_neg(a) -> PartTerms:
    return PartTerms({key: -c for key, c in stored_parts(a).items()})


def terms_sub(a, b) -> PartTerms:
    return terms_add(a, terms_neg(b))


def terms_scale(a, scalar) -> PartTerms:
    """a times scalar: each part of a times the real part of scalar, then
    each part of a times its i part."""
    acc = {}
    for s in scalar_parts(Scalar._coerce(scalar)):
        for (m, _), c in stored_parts(a).items():
            _acc_part(acc, m, c * s)
    return PartTerms(acc)


def terms_times_t(a, power: int = 1) -> PartTerms:
    if power < 0 and a:
        raise ContractError("negative t powers are not representable")
    return PartTerms({(Monomial(m.odd_mask, m.even, m.t_deg + power), p): c
                      for (m, p), c in stored_parts(a).items()})


def terms_integrate(a) -> PartTerms:
    acc = {}
    for (mono, _), coeff in stored_parts(a).items():
        _acc_part(acc, Monomial(mono.odd_mask, mono.even, 0), coeff / (mono.t_deg + 1))
    return PartTerms(acc)


def terms_substitute(a, value) -> PartTerms:
    """Each part of a times the real part of value ** t, then each part of
    a times its i part."""
    value = Scalar._coerce(value)
    acc = {}
    for p in 0, 1:
        for (mono, _), coeff in stored_parts(a).items():
            s = part_of(value ** mono.t_deg, p)
            if s:
                _acc_part(acc, Monomial(mono.odd_mask, mono.even, 0), coeff * s)
    return PartTerms(acc)


def terms_t_derivative(a) -> PartTerms:
    acc = {}
    for (mono, _), coeff in stored_parts(a).items():
        if mono.t_deg:
            _acc_part(acc, Monomial(mono.odd_mask, mono.even, mono.t_deg - 1),
                      coeff * mono.t_deg)
    return PartTerms(acc)


# ---------------------------------------------------------------------------
# The d.d probes as one pair of derivation calls per generator and per draw
# ---------------------------------------------------------------------------

def d_squared_witness_by_generator(setup):
    """First generator with d(d(gen)) != 0 and that element, or None."""
    for g in setup.context.generators:
        out = setup.d(setup.d(setup.context.gen(g.gid)))
        if not out.is_zero:
            return g.label, out
    return None


def d_squared_probe_by_draw(setup, seed: int):
    """d(d(x)) for the first of 20 random elements x where it is nonzero."""
    rng = random.Random(seed)
    for _ in range(20):
        x = setup.context.random_element(rng, terms=3, max_odd=3, max_even=1, max_t=1)
        out = setup.d(setup.d(x))
        if not out.is_zero:
            return out
    return None


# ---------------------------------------------------------------------------
# The set-up before it read integer numerators throughout: the Jacobi scan
# one visited triple at a time, the gate's residues and the trace's walks on
# Scalars, and random elements built from Monomial-keyed Scalars
# ---------------------------------------------------------------------------

def jacobi_witness_by_triples(algebra):
    """``lie._jacobi_witness`` with one Scalar sum per visited triple
    (b, c, d): the d that bracket nontrivially with c, with b, or with a
    component of [b, c], in ascending order."""
    dim = algebra.dim
    right: dict = {}
    left: dict = {}
    for (b, c) in algebra._constants[1]:
        right.setdefault(b, set()).add(c)
        left.setdefault(c, set()).add(b)
    for b in range(dim):
        for c in range(b, dim):
            ds = right.get(c, set()) | left.get(b, set())
            for e, _ in algebra.bracket_on_basis(b, c):
                ds |= right.get(e, set())
            for d in sorted(ds):
                if d < b or d == b < c:
                    continue
                acc: dict = {}
                for p, q, r in ((b, c, d), (c, d, b), (d, b, c)):
                    for e, k1 in algebra.bracket_on_basis(p, q):
                        for a, k2 in algebra.bracket_on_basis(e, r):
                            _acc_add(acc, a, k1 * k2)
                if acc:
                    a = min(acc)
                    return ValidationFailure(
                        "jacobi", (a, b, c, d), f"cyclic sum = {acc[a].render()}")
    return None


def direction_residues_by_scalars(P, x) -> dict:
    """``invariants._direction_residues`` summing Scalars."""
    algebra = P.algebra
    preimages = {}
    for a in range(algebra.dim):
        for b, coeff in algebra.bracket_on_basis(x, a):
            preimages.setdefault(b, []).append((a, coeff))
    residues = {}
    for stup, v in P.values.items():
        for b in set(stup):
            pre = preimages.get(b)
            if pre is None:
                continue
            rest = list(stup)
            rest.remove(b)
            for a, coeff in pre:
                tup = tuple(sorted(rest + [a]))
                _acc_add(residues, tup, coeff * v * (rest.count(a) + 1))
    return residues


def symmetrized_trace_by_scalar_walks(algebra, k):
    """``invariants.symmetrized_trace`` walking the nonzero entries of the
    dense matrices, with Scalar products."""
    if algebra.matrices is None:
        raise ContractError("symmetrized trace needs a matrix realization")
    steps: dict = {}  # row -> [(column, matrix index, entry)]
    for a, M in enumerate(algebra.matrices):
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v:
                    steps.setdefault(i, []).append((j, a, v))
    sums: dict = {}
    for start in steps if k >= 1 else ():
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


def random_element_by_monomials(ctx, rng, terms: int = 3, max_odd: int = 2,
                                max_even: int = 1, max_t: int = 1) -> GradedElement:
    """``Context.random_element`` summing Scalars per Monomial, with the
    same random calls in the same order."""
    odd_ids, even_ids = ctx.odd_ids, ctx.even_ids
    acc = {}
    for _ in range(terms):
        n_odd = rng.randint(0, min(max_odd, len(odd_ids)))
        odd = sum(1 << g for g in rng.sample(odd_ids, n_odd)) if n_odd else 0
        n_even = rng.randint(0, max_even) if even_ids else 0
        even = tuple(sorted(rng.choices(even_ids, k=n_even))) if n_even else ()
        num, den = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)
        mono = Monomial(odd, even, rng.randint(0, max_t))
        _acc_add(acc, mono, Scalar(Fraction(num, den)))
    return GradedElement(ctx, acc)
