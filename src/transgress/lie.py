"""Lie algebras as exact structure-constant tables, with reductive splittings.

The bracket convention throughout is [e_b, e_c] = sum_a c[a, b, c] e_a, and
for algebra-valued forms [x, y]^a = sum_{b,c} c[a, b, c] x^b wedge y^c.
Built-in families (so(n), gl(n; C), u(n), su(2), abelian R^d) ship with a
matrix realization from which the table is computed, so the two descriptions
can be cross-validated.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .algebra import (
    Context,
    ContextError,
    ContractError,
    GradedElement,
    ONE,
    Scalar,
    ZERO,
    _Frame,
    _acc_add,
    _gmul,
    _json_int,
    _json_list,
    _packing,
    _product,
    _reduce,
    _scalar,
)

__all__ = [
    "LieAlgebra",
    "ReductiveSplit",
    "LieValuedForm",
    "ValidationFailure",
    "ValidationReport",
    "validate",
    "validate_split",
    "bracket",
    "project",
    "so_algebra",
    "gl_algebra",
    "u_algebra",
    "su2_algebra",
    "abelian_algebra",
    "so_block",
    "so_subalgebra_split",
    "gl_subalgebra_split",
    "su2_diagonal_split",
    "trivial_split",
    "named_algebra",
    "named_split",
    "algebra_from_dict",
    "algebra_from_file",
]


# ---------------------------------------------------------------------------
# Exact matrices (tuples of tuples of Scalar)
# ---------------------------------------------------------------------------

def _as_scalar(v) -> Scalar:
    return v if isinstance(v, Scalar) else Scalar(v)


def make_matrix(rows) -> tuple:
    return tuple(tuple(_as_scalar(v) for v in row) for row in rows)


def mat_sub(A, B):
    return tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_add(A, B):
    return tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def _sparse(A) -> dict:
    """The nonzero entries of a matrix as {(i, j): value}, row by row."""
    return {
        (i, j): v
        for i, row in enumerate(A) for j, v in enumerate(row) if not v.is_zero
    }


def _axpy(acc: dict, f: Scalar, vec: dict) -> None:
    """acc += f * vec, in place, dropping entries that cancel."""
    for key, v in vec.items():
        _acc_add(acc, key, f * v)


def _sparse_mul(A: dict, B: dict) -> dict:
    rows_b: dict = {}
    for (k, j), v in B.items():
        rows_b.setdefault(k, []).append((j, v))
    out: dict = {}
    for (i, k), a in A.items():
        for j, b in rows_b.get(k, ()):
            _acc_add(out, (i, j), a * b)
    return out


def _sparse_commutator(A: dict, B: dict) -> dict:
    out = _sparse_mul(A, B)
    for key, v in _sparse_mul(B, A).items():
        _acc_add(out, key, -v)
    return out


def structure_from_matrices(matrices) -> dict:
    """Structure constants of the span of independent matrices, exactly.

    The basis is reduced once to fully reduced pivots (pivot entry 1, zero
    at every other pivot's entry), each carrying its combination of basis
    indices.  A commutator's coefficient on a pivot is then its entry there,
    and whatever the pivots leave over is outside the span.
    """
    sparse = [_sparse(M) for M in matrices]
    pivots = []  # (entry, reduced matrix, {basis index: coefficient})
    for b, M in enumerate(sparse):
        vec, comb = dict(M), {b: ONE}
        for entry, pvec, pcomb in pivots:
            f = vec.get(entry)
            if f is not None:
                _axpy(vec, -f, pvec)
                _axpy(comb, -f, pcomb)
        if not vec:
            raise ContractError("matrix basis is linearly dependent")
        entry = min(vec)
        inv = vec[entry].inverse()
        vec = {key: v * inv for key, v in vec.items()}
        comb = {key: v * inv for key, v in comb.items()}
        for _, pvec, pcomb in pivots:
            f = pvec.get(entry)
            if f is not None:
                _axpy(pvec, -f, vec)
                _axpy(pcomb, -f, comb)
        pivots.append((entry, vec, comb))

    structure = {}
    for b in range(len(matrices)):
        for c in range(b + 1, len(matrices)):
            residual = _sparse_commutator(sparse[b], sparse[c])
            coeffs: dict = {}
            for entry, pvec, pcomb in pivots:
                f = residual.get(entry)
                if f is not None:
                    _axpy(coeffs, f, pcomb)
                    _axpy(residual, -f, pvec)
            if residual:
                raise ContractError("target is outside the span of the basis")
            for a in sorted(coeffs):
                structure[(a, b, c)] = coeffs[a]
                structure[(a, c, b)] = -coeffs[a]
    return structure


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class LieAlgebra:
    """Structure-constant table [e_b, e_c] = sum_a c[a,b,c] e_a."""

    def __init__(self, dim: int, labels: Sequence[str], structure: Mapping,
                 matrices=None, name: str = "", meta: Optional[dict] = None):
        if dim <= 0:
            raise ContractError("dimension must be positive")
        if len(labels) != dim:
            raise ContractError("need one label per basis element")
        table = {}
        for key, value in structure.items():
            a, b, c = key
            if not (0 <= a < dim and 0 <= b < dim and 0 <= c < dim):
                raise ContractError(f"structure index out of range: {key}")
            value = _as_scalar(value)
            if not value.is_zero:
                table[(a, b, c)] = value
        self.dim = dim
        self.labels = tuple(labels)
        self.structure = table
        self.matrices = tuple(make_matrix(M) for M in matrices) if matrices else None
        if self.matrices:
            n = len(self.matrices[0])
            if len(self.matrices) != dim:
                raise ContractError("need one matrix per basis element")
            if n == 0 or any(len(M) != n or any(len(row) != n for row in M)
                             for M in self.matrices):
                raise ContractError("matrices must be square and of one size")
        self.name = name
        self.meta = dict(meta or {})
        by_bc: dict = {}
        for (a, b, c), v in table.items():
            by_bc.setdefault((b, c), []).append((a, v))
        self._by_bc = {k: tuple(v) for k, v in by_bc.items()}
        self._plain = None  # the bracket table without packing

    @cached_property
    def _constants(self) -> tuple:
        """The structure constants as numerators: (denominator, lowest (2pi)
        power, highest power above it, the largest |re| + |im|, and per
        nonzero [e_b, e_c] in the order of ``_by_bc`` the entries
        (a, power above the lowest, re, im))."""
        ks = self.structure.values()
        if not ks:
            return 1, 0, 0, 0, ()
        den = lcm(*{k._den for k in ks})
        low = min(k.two_pi for k in ks)
        table = tuple((bc, tuple((a, k.two_pi - low, k._re * (den // k._den), k._im * (den // k._den))
                                 for a, k in entries)) for bc, entries in self._by_bc.items())
        norm = max(abs(re) + abs(im) for _, entries in table for _, _, re, im in entries)
        return den, low, max(k.two_pi for k in ks) - low, norm, table

    @cached_property
    def _bracket_failures(self) -> tuple:
        """The first antisymmetry and the first Jacobi failure of the table,
        each only if there is one.  ``validate`` reports them, and the
        ad-invariance gate prunes its directions only when there are none,
        so the scan runs once per algebra."""
        return tuple(failure for failure in (_antisymmetry_witness(self), _jacobi_witness(self))
                     if failure is not None)

    def _bracket_table(self, layout, shift: int) -> tuple:
        """The constants of each nonzero [e_b, e_c] keyed by ``layout`` and
        packed with ``shift``: ((b, c), ((a, {key: numerator}), ...)) per
        pair.  The table without packing or powers, the same for every
        layout, is kept."""
        if self._plain is not None and not shift:
            return self._plain
        _, _, high, _, constants = self._constants
        ps = layout.pshift
        table = tuple((bc, tuple((a, {q << ps: re + (im << shift)}) for a, q, re, im in entries))
                      for bc, entries in constants)
        if not (shift or high):
            self._plain = table
        return table

    def c(self, a: int, b: int, c: int) -> Scalar:
        return self.structure.get((a, b, c), ZERO)

    def bracket_on_basis(self, b: int, c: int):
        """[e_b, e_c] as a tuple of (index, coefficient)."""
        return self._by_bc.get((b, c), ())

    def has_imaginary_data(self) -> bool:
        if any(v.im for v in self.structure.values()):
            return True
        if self.matrices:
            return any(v.im for M in self.matrices for row in M for v in row)
        return False

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name or 'custom'}, dim={self.dim})"


@dataclass(frozen=True)
class ReductiveSplit:
    """Index partition of the basis into a subalgebra part and a complement."""

    h: tuple
    p: tuple

    @staticmethod
    def from_h(dim: int, h_indices: Sequence[int]) -> "ReductiveSplit":
        h = tuple(sorted(h_indices))
        if any(not 0 <= i < dim for i in h) or len(set(h)) != len(h):
            raise ContractError(f"bad subalgebra indices {h_indices}")
        p = tuple(i for i in range(dim) if i not in set(h))
        return ReductiveSplit(h, p)


@dataclass
class ValidationFailure:
    invariant: str
    indices: tuple
    detail: str = ""


@dataclass
class ValidationReport:
    passed: bool
    failures: list = field(default_factory=list)

    def first(self) -> Optional[ValidationFailure]:
        return self.failures[0] if self.failures else None


def _antisymmetry_witness(algebra: LieAlgebra) -> Optional[ValidationFailure]:
    """First sorted (a, b, c) with c[a,b,c] + c[a,c,b] nonzero."""
    keys = set(algebra.structure)
    keys |= {(a, c, b) for (a, b, c) in algebra.structure}
    for key in sorted(keys):
        a, b, c = key
        total = algebra.c(a, b, c) + algebra.c(a, c, b)
        if not total.is_zero:
            return ValidationFailure(
                "antisymmetry", key,
                f"c[{a},{b},{c}] + c[{a},{c},{b}] = {total.render()}")
    return None


def _jacobi_witness(algebra: LieAlgebra) -> Optional[ValidationFailure]:
    """First (b, c, d) in lexicographic order with a nonzero cyclic sum
    [[b,c],d] + [[c,d],b] + [[d,b],c], reported at its smallest component.

    The sum is the same at all three rotations of (b, c, d), so it is taken
    once, at the rotation that comes first.  It is empty unless [[b,c],d],
    [c,d] or [d,b] is nonzero, so only the d that bracket nontrivially with
    c, with b, or with a component of [b,c] are visited.

    The constants are the numerators of ``_constants``, so every product
    has the denominator D_c^2.  A product of two constants is summed into
    the slot ``a + dim * q``: its component a, and the sum q of the powers
    of the two above the lowest.
    """
    den, low, _, norm, constants = algebra._constants
    dim = algebra.dim
    # a sum takes at most dim products for each of the three rotations
    imag = any(im for _, entries in constants for _, _, _, im in entries)
    shift = _packing(3 * dim * norm * norm, ()) if imag else 0
    first = [[] for _ in range(dim * dim)]  # b * dim + c -> [(e * dim, dim * q, numerator)]
    second = [[] for _ in range(dim * dim)]  # b * dim + c -> [(a + dim * q, numerator)]
    for (b, c), entries in constants:
        for a, q, re, im in entries:
            k = re + (im << shift)
            first[b * dim + c].append((a * dim, dim * q, k))
            second[b * dim + c].append((a + dim * q, k))
    right: dict = {}
    left: dict = {}
    for (b, c) in algebra._by_bc:
        right.setdefault(b, set()).add(c)
        left.setdefault(c, set()).add(b)
    for b in range(dim):
        for c in range(b, dim):
            ds = right.get(c, set()) | left.get(b, set())
            for e, _ in algebra.bracket_on_basis(b, c):
                ds |= right.get(e, set())
            for d in sorted(ds):
                # (b, c, d) comes first among its rotations, as b <= c
                if d < b or d == b < c:
                    continue
                acc: dict = {}
                for pair1, pair2 in ((b * dim + c, d), (c * dim + d, b), (d * dim + b, c)):
                    for ed, shifted, k1 in first[pair1]:
                        for slot, k2 in second[ed + pair2]:
                            slot += shifted
                            k = (_gmul(k1, k2, shift) if shift else k1 * k2) + acc.get(slot, 0)
                            if k:
                                acc[slot] = k
                            else:
                                del acc[slot]
                if acc:
                    a = min(slot % dim for slot in acc)
                    (q, k), *rest = [(slot // dim, k) for slot, k in acc.items()
                                     if slot % dim == a]
                    if rest:
                        raise ContractError(f"cannot add scalars with different (2pi) "
                                            f"powers: {2 * low + q} vs {2 * low + rest[0][0]}")
                    value = _scalar(k, den * den, shift, 2 * low + q)
                    return ValidationFailure(
                        "jacobi", (a, b, c, d), f"cyclic sum = {value.render()}")
    return None


def _realization_witness(algebra: LieAlgebra) -> Optional[ValidationFailure]:
    """First (b, c) whose matrix commutator differs from the table's
    sum_a c[a,b,c] M_a.

    For an antisymmetric table both sides are antisymmetric in (b, c), so
    (c, b) fails exactly when (b, c) does and (b, b) never fails: the pairs
    with b < c find the same first witness."""
    if algebra.matrices is None:
        return None
    mats = [_sparse(M) for M in algebra.matrices]
    if any(failure.invariant == "antisymmetry" for failure in algebra._bracket_failures):
        pairs = itertools.product(range(algebra.dim), repeat=2)
    else:
        pairs = itertools.combinations(range(algebra.dim), 2)
    for b, c in pairs:
        residual = _sparse_commutator(mats[b], mats[c])
        for a, v in algebra.bracket_on_basis(b, c):
            _axpy(residual, -v, mats[a])
        if residual:
            return ValidationFailure(
                "matrix-realization", (b, c),
                "commutator does not match the table")
    return None


def validate(algebra: LieAlgebra) -> ValidationReport:
    """Check antisymmetry, the Jacobi identity, and the matrix realization.

    Each invariant reports at most its first violating index tuple.
    """
    failures = list(algebra._bracket_failures)
    failure = _realization_witness(algebra)
    if failure is not None:
        failures.append(failure)
    return ValidationReport(not failures, failures)


def validate_split(algebra: LieAlgebra, split: ReductiveSplit) -> ValidationReport:
    """Check that h is a subalgebra and [h, p] lands in p."""
    failures = []
    h, p = set(split.h), set(split.p)
    if h & p or h | p != set(range(algebra.dim)):
        failures.append(ValidationFailure(
            "partition", (tuple(split.h), tuple(split.p)),
            "indices must partition the basis"))
        return ValidationReport(False, failures)

    for (a, b, c), v in sorted(algebra.structure.items()):
        if b in h and c in h and a in p:
            failures.append(ValidationFailure(
                "subalgebra", (a, b, c),
                f"c[{a},{b},{c}] = {v.render()} leaks into the complement"))
            break
    for (a, b, c), v in sorted(algebra.structure.items()):
        if b in h and c in p and a in h:
            failures.append(ValidationFailure(
                "reductive", (a, b, c),
                f"c[{a},{b},{c}] = {v.render()} breaks ad-invariance of the complement"))
            break
    return ValidationReport(not failures, failures)


class _GeneratedSpan:
    """The span of the subalgebra generated by the basis directions added so
    far, for an antisymmetric table that satisfies the Jacobi identity.

    The span is held as fully reduced pivots (pivot entry 1, zero at every
    other pivot's entry), so a vector reduces to zero exactly when it lies in
    the span.  Each added vector is bracketed with every one added before it,
    which closes the span under brackets.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.pivots = {}  # entry -> reduced vector {basis index: Scalar}
        self.added = []  # the vectors as added, each bracketed with the later ones

    def _reduce(self, vec: dict) -> dict:
        # a pivot is zero at the other pivots' entries, so one pass suffices
        for entry in [e for e in vec if e in self.pivots]:
            _axpy(vec, -vec[entry], self.pivots[entry])
        return vec

    def __contains__(self, x: int) -> bool:
        return not self._reduce({x: ONE})

    @property
    def full(self) -> bool:
        return len(self.pivots) == self.algebra.dim

    def add(self, x: int) -> None:
        """Add e_x and close the span under brackets."""
        todo = [{x: ONE}]
        while todo and not self.full:
            vec = self._reduce(todo.pop())
            if not vec:
                continue
            self.added.append(dict(vec))
            todo += [self._bracket(vec, u) for u in self.added[:-1]]
            entry = min(vec)
            inv = vec[entry].inverse()
            vec = {key: v * inv for key, v in vec.items()}
            for pvec in self.pivots.values():
                f = pvec.get(entry)
                if f is not None:
                    _axpy(pvec, -f, vec)
            self.pivots[entry] = vec

    def _bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for b, ub in u.items():
            for c, vc in v.items():
                for a, k in self.algebra.bracket_on_basis(b, c):
                    _acc_add(out, a, ub * vc * k)
        return out


class LieValuedForm:
    """One graded element per basis index, all of one homogeneous degree."""

    __slots__ = ("algebra", "ctx", "components", "degree")

    def __init__(self, algebra: LieAlgebra, ctx: Context,
                 components: Sequence[GradedElement], degree: int):
        components = tuple(components)
        if len(components) != algebra.dim:
            raise ContractError("need one component per basis element")
        for comp in components:
            if comp.ctx is not ctx:
                raise ContextError("component over a different context")
            if comp.is_zero or comp._deg == degree:
                continue
            if not comp.is_homogeneous or comp.degree() != degree:
                raise ContractError(
                    f"components must be homogeneous of degree {degree}")
        self.algebra = algebra
        self.ctx = ctx
        self.components = components
        self.degree = degree

    @staticmethod
    def zero(algebra: LieAlgebra, ctx: Context, degree: int) -> "LieValuedForm":
        z = ctx.zero()
        return LieValuedForm(algebra, ctx, (z,) * algebra.dim, degree)

    def _check(self, other: "LieValuedForm") -> None:
        if self.algebra is not other.algebra or self.ctx is not other.ctx:
            raise ContextError("forms over different algebras or contexts")

    def __add__(self, other: "LieValuedForm") -> "LieValuedForm":
        self._check(other)
        if self.degree != other.degree:
            raise ContractError("cannot add forms of different degrees")
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return LieValuedForm(self.algebra, self.ctx, comps, self.degree)

    def __sub__(self, other: "LieValuedForm") -> "LieValuedForm":
        return self + (-other)

    def __neg__(self) -> "LieValuedForm":
        return LieValuedForm(
            self.algebra, self.ctx,
            tuple(-c for c in self.components), self.degree)

    def scale(self, s) -> "LieValuedForm":
        return LieValuedForm(
            self.algebra, self.ctx,
            tuple(c.scale(s) for c in self.components), self.degree)

    def times_t(self, power: int = 1) -> "LieValuedForm":
        return LieValuedForm(
            self.algebra, self.ctx,
            tuple(c.times_t(power) for c in self.components), self.degree)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def support(self) -> tuple:
        return tuple(a for a, c in enumerate(self.components) if not c.is_zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieValuedForm):
            return NotImplemented
        return (self.algebra is other.algebra and self.ctx is other.ctx
                and self.components == other.components)

    def first_nonzero(self):
        """(basis index, leading term string) of the first nonzero component."""
        for a, c in enumerate(self.components):
            if not c.is_zero:
                return a, c.leading_term_str()
        return None

    def __repr__(self) -> str:
        nz = self.support()
        return f"LieValuedForm(degree={self.degree}, support={nz})"


def bracket(x: LieValuedForm, y: LieValuedForm) -> LieValuedForm:
    """[x, y]^a = sum c[a,b,c] x^b /\\ y^c; degrees add.

    The components of x, of y and the structure constants are read as
    integer numerators, each over one denominator, so every term of the
    result has the denominator D_c * D_x * D_y.  Each x^b /\\ y^c is taken
    once and added, times each constant on it, into the one dict of its
    component.
    """
    x._check(y)
    algebra, ctx = x.algebra, x.ctx
    xs = {b: c for b, c in enumerate(x.components) if not c.is_zero}
    ys = {c: e for c, e in enumerate(y.components) if not e.is_zero}
    if not (xs and ys and algebra.structure):
        return LieValuedForm.zero(algebra, ctx, x.degree + y.degree)
    cden, clow, chigh, cnorm, constants = algebra._constants
    cimag = any(im for _, entries in constants for _, _, _, im in entries)
    # each x^b /\ y^c meets at most every constant
    frame = _Frame(ctx, [(list(xs.values()), 1), (list(ys.values()), 1)],
                   (clow, cden, chigh, 0, len(algebra.structure) * cnorm, cimag))
    layout, shift = frame.layout, frame.shift
    xe = {b: frame.align(e) for b, e in xs.items()}
    ye = {c: frame.align(e, 1) for c, e in ys.items()}
    ximag, yimag = any(e._shift for e in xs.values()), any(e._shift for e in ys.values())
    pair_both = shift if ximag and yimag else 0  # Gaussian products
    scale_both = shift if cimag and (ximag or yimag) else 0  # and constants
    acc: dict = {}
    for (b, c), entries in algebra._bracket_table(layout, shift):
        xb = xe.get(b)
        if xb is None:
            continue
        yc = ye.get(c)
        if yc is None:
            continue
        prod = _product(xb, yc, layout, pair_both)
        if not prod:
            continue
        for a, k in entries:
            _product(prod, k, layout, scale_both, acc.setdefault(a, {}))
    degree, zero = x.degree + y.degree, ctx.zero()
    comps = [_reduce(frame.element(acc[a], degree)) if acc.get(a) else zero
             for a in range(algebra.dim)]
    return LieValuedForm(algebra, ctx, comps, degree)


def project(split: ReductiveSplit, x: LieValuedForm):
    """Zero out the complementary components; returns (h_part, p_part)."""
    zero = x.ctx.zero()
    h_set = set(split.h)
    h_comps = tuple(c if a in h_set else zero for a, c in enumerate(x.components))
    p_comps = tuple(zero if a in h_set else c for a, c in enumerate(x.components))
    return (
        LieValuedForm(x.algebra, x.ctx, h_comps, x.degree),
        LieValuedForm(x.algebra, x.ctx, p_comps, x.degree),
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _elementary(n: int, i: int, j: int, value=1):
    rows = [[Scalar(0)] * n for _ in range(n)]
    rows[i][j] = _as_scalar(value)
    return make_matrix(rows)


def so_algebra(n: int) -> LieAlgebra:
    """so(n) with basis E_ij - E_ji for i < j, ordered lexicographically."""
    if n < 2:
        raise ContractError("so(n) needs n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = [mat_sub(_elementary(n, i, j), _elementary(n, j, i)) for i, j in pairs]
    labels = [f"E[{i + 1},{j + 1}]" for i, j in pairs]
    structure = structure_from_matrices(mats) if len(pairs) > 1 else {}
    return LieAlgebra(len(pairs), labels, structure, mats, name=f"so{n}",
                      meta={"family": "so", "n": n, "pairs": tuple(pairs)})


def gl_algebra(n: int) -> LieAlgebra:
    """gl(n; C) with basis E_ij, ordered lexicographically."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    mats = [_elementary(n, i, j) for i, j in pairs]
    labels = [f"E[{i + 1},{j + 1}]" for i, j in pairs]
    structure = structure_from_matrices(mats)
    return LieAlgebra(len(pairs), labels, structure, mats, name=f"gl{n}",
                      meta={"family": "gl", "n": n, "pairs": tuple(pairs)})


def u_algebra(n: int) -> LieAlgebra:
    """u(n): skew-hermitian matrices over the Gaussian rationals."""
    i_unit = Scalar(0, 1)
    mats = []
    labels = []
    for k in range(n):
        mats.append(_elementary(n, k, k, i_unit))
        labels.append(f"iE[{k + 1},{k + 1}]")
    for j in range(n):
        for k in range(j + 1, n):
            mats.append(mat_sub(_elementary(n, j, k), _elementary(n, k, j)))
            labels.append(f"A[{j + 1},{k + 1}]")
            mats.append(mat_add(_elementary(n, j, k, i_unit),
                                _elementary(n, k, j, i_unit)))
            labels.append(f"S[{j + 1},{k + 1}]")
    structure = structure_from_matrices(mats) if len(mats) > 1 else {}
    return LieAlgebra(len(mats), labels, structure, mats, name=f"u{n}",
                      meta={"family": "u", "n": n})


def su2_algebra() -> LieAlgebra:
    """su(2) with [X1, X2] = X3 cyclically; X_a = sigma_a / (2i)."""
    half_i = Scalar(0, Fraction(-1, 2))
    X1 = make_matrix([[0, half_i], [half_i, 0]])
    X2 = make_matrix([[0, Fraction(-1, 2)], [Fraction(1, 2), 0]])
    X3 = make_matrix([[half_i, 0], [0, Scalar(0, Fraction(1, 2))]])
    mats = [X1, X2, X3]
    structure = structure_from_matrices(mats)
    return LieAlgebra(3, ("X[1]", "X[2]", "X[3]"), structure, mats,
                      name="su2", meta={"family": "su2", "n": 2})


def abelian_algebra(d: int) -> LieAlgebra:
    """R^d with the zero bracket, realized by commuting diagonal matrices."""
    mats = [_elementary(d, k, k) for k in range(d)]
    labels = [f"x[{k + 1}]" for k in range(d)]
    return LieAlgebra(d, labels, {}, mats, name=f"abelian{d}",
                      meta={"family": "abelian", "n": d})


def so_block(n: int, m: int) -> tuple:
    """Indices of the basis of ``so_algebra(n)`` that span so(m): the pairs
    contained in the first m coordinates."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return tuple(idx for idx, (i, j) in enumerate(pairs) if j < m)


def so_subalgebra_split(algebra: LieAlgebra, m: int) -> ReductiveSplit:
    """so(m) inside so(n): pairs contained in the first m coordinates."""
    if algebra.meta.get("family") != "so":
        raise ContractError("so subalgebra split needs an so(n) algebra")
    return ReductiveSplit.from_h(algebra.dim, so_block(algebra.meta["n"], m))


def gl_subalgebra_split(algebra: LieAlgebra, m: int) -> ReductiveSplit:
    """gl(m) inside gl(n): matrix units in the top-left m-by-m block."""
    if algebra.meta.get("family") != "gl":
        raise ContractError("gl subalgebra split needs a gl(n) algebra")
    pairs = algebra.meta["pairs"]
    h = [idx for idx, (i, j) in enumerate(pairs) if i < m and j < m]
    return ReductiveSplit.from_h(algebra.dim, h)


def su2_diagonal_split(algebra: LieAlgebra) -> ReductiveSplit:
    """The u(1) line spanned by the diagonal generator of su(2)."""
    if algebra.meta.get("family") != "su2":
        raise ContractError("diagonal split needs su(2)")
    return ReductiveSplit.from_h(algebra.dim, (2,))


def trivial_split(algebra: LieAlgebra) -> ReductiveSplit:
    """Empty subalgebra: the whole algebra is the complement."""
    return ReductiveSplit.from_h(algebra.dim, ())


# ---------------------------------------------------------------------------
# Named lookup and the algebra file format
# ---------------------------------------------------------------------------

def named_algebra(name: str) -> LieAlgebra:
    name = name.strip().lower()
    if name == "su2":
        return su2_algebra()
    for prefix, builder in (("so", so_algebra), ("gl", gl_algebra),
                            ("u", u_algebra), ("abelian", abelian_algebra)):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return builder(int(name[len(prefix):]))
    raise ContractError(f"unknown algebra name {name!r}")


def named_split(algebra: LieAlgebra, spec: Optional[str]) -> ReductiveSplit:
    """Resolve a subalgebra description: a known name, 'none', or h indices."""
    if spec is None or spec.strip().lower() in ("none", "trivial", ""):
        return trivial_split(algebra)
    spec = spec.strip().lower()
    if spec.startswith("so") and spec[2:].isdigit():
        return so_subalgebra_split(algebra, int(spec[2:]))
    if spec.startswith("gl") and spec[2:].isdigit():
        return gl_subalgebra_split(algebra, int(spec[2:]))
    if spec in ("u1", "u1-line") and algebra.meta.get("family") == "su2":
        return su2_diagonal_split(algebra)
    try:
        indices = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise ContractError(f"cannot resolve subalgebra {spec!r}") from None
    return ReductiveSplit.from_h(algebra.dim, indices)


def algebra_from_dict(data: dict) -> LieAlgebra:
    """Build a custom algebra from the JSON-shaped table format.

    Required: ``dim`` and ``entries`` (quadruples [a, b, c, value] with
    integer indices and an exact scalar string or integer, meaning
    c[a,b,c] = value).  A missing mirror entry (a, c, b) is filled in
    antisymmetrically; a present one must already be the negative, otherwise
    the table is rejected.  Optional: ``labels`` and ``matrices`` (one per
    basis element, square and all of one size, with exact scalar entries).  Anything of another JSON
    type is rejected with a ContractError.
    """
    if not isinstance(data, dict):
        raise ContractError("an algebra file must hold a JSON object")
    unknown = set(data) - {"dim", "labels", "entries", "matrices", "name"}
    if unknown:
        raise ContractError(f"unknown keys in algebra file: {sorted(unknown)}")
    dim = _json_int(data.get("dim"), "dim")
    if dim <= 0:
        raise ContractError("dim must be a positive integer")
    labels = data.get("labels") or [f"e[{a + 1}]" for a in range(dim)]
    if any(not isinstance(label, str) for label in _json_list(labels, "labels")):
        raise ContractError("labels must be strings")
    name = data.get("name", "custom")
    if not isinstance(name, str):
        raise ContractError(f"name must be a string, not {name!r}")
    structure: dict = {}
    for entry in _json_list(data.get("entries", []), "entries"):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ContractError(f"entry must be [a, b, c, value]: {entry!r}")
        key = tuple(_json_int(i, "structure index") for i in entry[:3])
        v = Scalar.from_json(entry[3])
        if key in structure:
            raise ContractError(f"duplicate entry for {key}")
        structure[key] = v
    for (a, b, c), v in list(structure.items()):
        mirror = (a, c, b)
        if mirror not in structure:
            if b == c:
                if not v.is_zero:
                    raise ContractError(
                        f"non-antisymmetric table: c[{a},{b},{c}] with b == c")
                continue
            structure[mirror] = -v
        elif not (structure[mirror] + v).is_zero:
            raise ContractError(
                f"non-antisymmetric table at ({a},{b},{c})/({a},{c},{b})")
    matrices = None
    if data.get("matrices") is not None:
        matrices = [
            [[Scalar.from_json(v) for v in _json_list(row, "matrix row")]
             for row in _json_list(M, "matrix")]
            for M in _json_list(data["matrices"], "matrices")
        ]
    return LieAlgebra(dim, labels, structure, matrices,
                      name=name, meta={"family": "custom"})


def algebra_from_file(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ContractError(f"cannot parse {path}: {exc}") from None
    return algebra_from_dict(data)
