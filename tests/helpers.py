"""Independent reference implementations used as test oracles."""

import itertools

from transgress.algebra import Scalar, ZERO


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
