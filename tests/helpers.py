"""Independent reference implementations used as test oracles."""

import itertools
from fractions import Fraction
from math import factorial

from transgress.algebra import ContractError, Scalar, ZERO, permutation_sign
from transgress.invariants import InvariantPolynomial, _orderings
from transgress.lie import (
    ValidationFailure,
    ValidationReport,
    mat_commutator,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_trace,
)


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


def literal_basicness(setup, form):
    """(horizontality, invariance) verdicts and witnesses from the literal
    loops: iota_x(form) and L_x(form) = d(iota_x form) + iota_x(d form) for
    every x in h, each stopping at the first nonzero image."""
    verdicts = []
    for name, label, op in (("horizontality", "iota", setup.interior),
                            ("invariance", "L", setup.lie_derivative)):
        verdict = (name, True, "")
        for x in setup.split.h:
            image = op(x)(form)
            if not image.is_zero:
                verdict = (name, False,
                           f"{label}[{x}] -> {image.leading_term_str()}")
                break
        verdicts.append(verdict)
    return verdicts


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
