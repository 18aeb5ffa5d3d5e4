"""Lie algebras as exact structure-constant tables, with reductive splittings.

The bracket convention throughout is [e_b, e_c] = sum_a c[a, b, c] e_a, and
for algebra-valued forms [x, y]^a = sum_{b,c} c[a, b, c] x^b wedge y^c.
Built-in families (so(n), gl(n; C), u(n), su(2), abelian R^d) ship with a
matrix realization from which the table is computed, so the two descriptions
can be cross-validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

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
    _common,
    _json_int,
    _json_list,
    _numerators,
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
]


# ---------------------------------------------------------------------------
# Matrix realizations as sparse integer matrices
# ---------------------------------------------------------------------------

class _Realization(NamedTuple):
    """n-by-n matrices as {(i, j, part): numerator} dicts of their nonzero
    entries over one denominator, the real part of an entry at part 0 and
    its i part at part 1.  A product of two entries has the xor of their
    parts, and is negated where two i parts meet (i * i = -1); a real
    matrix has no part 1."""

    n: int
    den: int
    mats: tuple


def _realization(matrices, dim: int = None) -> Optional[_Realization]:
    """The realization of matrices given as rows of exact scalars (a
    ``_Realization`` is taken as it is), checked to be ``dim`` square
    matrices of one size with no entry at a (2pi) power."""
    if isinstance(matrices, _Realization) or not matrices:
        return matrices or None
    rows = [[[v if isinstance(v, Scalar) else Scalar(v) for v in row] for row in M]
            for M in matrices]
    n = len(rows[0])
    if dim is not None and len(rows) != dim:
        raise ContractError("need one matrix per basis element")
    if n == 0 or any(len(M) != n or any(len(row) != n for row in M) for M in rows):
        raise ContractError("matrices must be square and of one size")
    den, power = _common([v for M in rows for row in M for v in row if v])
    if power:
        raise ContractError(f"matrix entries carry no (2pi) power, not {power}")
    mats = tuple({(i, j, p): k for i, row in enumerate(M) for j, v in enumerate(row) if v
                  for p, k in _numerators(v, den)} for M in rows)
    return _Realization(n, den, mats)


def _times_i(vec: dict) -> dict:
    """i times a vector of numerators whose keys end in their part: each
    entry moves to the other part, negated where i meets i."""
    return {(*key[:-1], 1 - key[-1]): -v if key[-1] else v for key, v in vec.items()}


def _axpy(acc: dict, f, vec: dict) -> None:
    """acc += f * vec, in place, dropping entries that cancel: Scalars or
    integer numerators."""
    for key, v in vec.items():
        v = f * v
        if key in acc:
            v = acc[key] + v
        if v:
            acc[key] = v
        else:
            del acc[key]


def _commutator(A: dict, B: dict) -> dict:
    """AB - BA for matrices of numerators keyed (row, column, part)."""
    out: dict = {}
    for X, Y, sign in ((A, B, 1), (B, A, -1)):
        for (i, k, p), x in X.items():
            for (l, j, q), y in Y.items():
                if k == l:
                    key = i, j, p ^ q
                    v = (-sign if p & q else sign) * x * y + out.get(key, 0)
                    if v:
                        out[key] = v
                    else:
                        del out[key]
    return out


def _pivot(pivots: dict, vec: dict, comb: dict) -> bool:
    """Reduce vec, and the combination comb it stands for alongside, in
    place by the fully reduced pivots {entry: (vector, combination)} (pivot
    entry 1, zero at every other pivot's entry); one pass suffices.  A
    nonzero rest becomes the pivot at its smallest entry and is cleared
    from the others.  Returns whether it did."""
    for entry in [e for e in vec if e in pivots]:
        f = -vec[entry]
        _axpy(vec, f, pivots[entry][0])
        _axpy(comb, f, pivots[entry][1])
    if not vec:
        return False
    entry = min(vec)
    inv = vec[entry].inverse()
    vec = {key: v * inv for key, v in vec.items()}
    comb = {key: v * inv for key, v in comb.items()}
    for pvec, pcomb in pivots.values():
        f = pvec.get(entry)
        if f is not None:
            _axpy(pvec, -f, vec)
            _axpy(pcomb, -f, comb)
    pivots[entry] = vec, comb
    return True


def structure_from_matrices(matrices) -> dict:
    """Structure constants of the span of independent matrices, exactly.

    The basis is reduced once to fully reduced pivots, each carrying its
    combination of basis indices.  A commutator's coefficient on a pivot is
    then its entry there, and whatever the pivots leave over is outside the
    span.

    The pivots are reduced from the numerators N_b of the matrices, over
    their denominator D, and are then put over one denominator Q.  The
    numerators of [N_b, N_c] give those of its coefficients over D * Q, and
    Q [N_b, N_c] less its parts along the pivots is what they leave over.
    An entry's i part takes the pivot's vector and combination times i.
    """
    r = _realization(matrices)
    if r is None:
        return {}
    pivots: dict = {}
    for b, M in enumerate(r.mats):
        entries = {}
        for (i, j, p), v in M.items():
            entries.setdefault((i, j), [0, 0])[p] = v
        if not _pivot(pivots, {e: _scalar(re, im, 1, 0) for e, (re, im) in entries.items()},
                      {b: ONE}):
            raise ContractError("matrix basis is linearly dependent")
    q, _ = _common([v for pair in pivots.values() for part in pair for v in part.values()])
    # each pivot's vector keyed (row, column, part) and its combination
    # keyed (index, part), as numerators over q
    nums = {e: ({(i, j, p): k for (i, j), v in vec.items() for p, k in _numerators(v, q)},
                {(b, p): k for b, v in comb.items() for p, k in _numerators(v, q)})
            for e, (vec, comb) in pivots.items()}

    structure = {}
    for b, c in itertools.combinations(range(len(r.mats)), 2):
        commutator = _commutator(r.mats[b], r.mats[c])
        residual = {key: v * q for key, v in commutator.items()}
        coeffs: dict = {}
        for (i, j, p), f in commutator.items():
            if (i, j) in nums:
                vec, comb = (_times_i(part) if p else part for part in nums[i, j])
                _axpy(coeffs, f, comb)
                _axpy(residual, -f, vec)
        if residual:
            raise ContractError("target is outside the span of the basis")
        joined: dict = {}
        for (a, p), k in coeffs.items():
            joined.setdefault(a, [0, 0])[p] = k
        for a in sorted(joined):
            coeff = _scalar(*joined[a], r.den * q, 0)
            structure[(a, b, c)] = coeff
            structure[(a, c, b)] = -coeff
    return structure


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

class LieAlgebra:
    """Structure-constant table [e_b, e_c] = sum_a c[a,b,c] e_a, with an
    optional matrix realization: ``matrices`` as rows of exact scalars, or a
    ``_Realization``, which the set-up reads.  Neither carries a (2pi)
    power."""

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
            value = value if isinstance(value, Scalar) else Scalar(value)
            if value.two_pi:
                raise ContractError(f"structure constant {key} carries no (2pi) power, "
                                    f"not {value.render()}")
            if not value.is_zero:
                table[(a, b, c)] = value
        self.dim = dim
        self.labels = tuple(labels)
        self.structure = table
        self._realization = _realization(matrices, dim)
        self.name = name
        self.meta = dict(meta or {})

    @cached_property
    def _constants(self) -> tuple:
        """The structure constants as integer numerators: (their
        denominator, {(b, c): [the entries (a, part, numerator)]} per
        nonzero [e_b, e_c]), each constant's real part (part 0) before its
        i part (part 1), in the order of ``structure``."""
        den, _ = _common(self.structure.values())
        table = {}
        for (a, b, c), k in self.structure.items():
            entries = table.setdefault((b, c), [])
            for p, v in _numerators(k, den):
                entries.append((a, p, v))
        return den, table

    @cached_property
    def _bracket_failures(self) -> tuple:
        """The first antisymmetry and the first Jacobi failure of the table,
        each only if there is one.  ``validate`` reports them, and the
        ad-invariance gate prunes its directions only when there are none,
        so the scan runs once per algebra."""
        return tuple(failure for failure in (_antisymmetry_witness(self), _jacobi_witness(self))
                     if failure is not None)

    @cached_property
    def matrices(self) -> Optional[tuple]:
        """The realization as rows of Scalars, built when first read."""
        r = self._realization
        if r is None:
            return None
        out = []
        for M in r.mats:
            rows = [[[0, 0] for _ in range(r.n)] for _ in range(r.n)]
            for (i, j, p), v in M.items():
                rows[i][j][p] = v
            out.append(tuple(tuple(_scalar(re, im, r.den, 0) for re, im in row) for row in rows))
        return tuple(out)

    def c(self, a: int, b: int, c: int) -> Scalar:
        return self.structure.get((a, b, c), ZERO)

    def bracket_on_basis(self, b: int, c: int):
        """[e_b, e_c] as a tuple of (index, coefficient)."""
        indices = dict.fromkeys(a for a, _, _ in self._constants[1].get((b, c), ()))
        return tuple([(a, self.c(a, b, c)) for a in indices])

    def has_imaginary_data(self) -> bool:
        r = self._realization
        return (any(p for entries in self._constants[1].values() for _, p, _ in entries)
                or bool(r and any(p for M in r.mats for _, _, p in M)))

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
        in_h = set(h)
        if any(not 0 <= i < dim for i in h) or len(in_h) != len(h):
            raise ContractError(f"bad subalgebra indices {h_indices}")
        return ReductiveSplit(h, tuple(i for i in range(dim) if i not in in_h))

    def partitions(self, dim: int) -> bool:
        """Whether h and p partition the basis indices 0..dim-1."""
        h, p = set(self.h), set(self.p)
        return not h & p and h | p == set(range(dim))


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
    once, at the rotation that comes first.  For one pair b <= c the sums
    of all d are taken together: each of the three brackets is a sum over
    the nonzero [e_b, e_c], [e_c, e_d] or [e_d, e_b] of e_e bracketed with
    the third index, so only the d that reach a nonzero product are visited.

    The constants are the numerators of ``_constants``, so every product
    has the denominator D_c^2.  A product of two constants is summed into
    the slot d * dim + a of its d and its component a, plus dim^2 for an i
    part: an entry of [e_b, e_c] is kept as (a + dim^2 part, numerator),
    and as that times i for a first factor with an i part (i * i = -1).
    """
    den, constants = algebra._constants
    dim = algebra.dim
    sq = dim * dim
    # b * dim + c -> (the entries of [e_b, e_c], the same times i, and as
    # (e * dim, part, numerator) for a first bracket)
    brackets = {}
    right = [[] for _ in range(dim)]  # b -> [(c, brackets of b, c)] for [e_b, e_c] nonzero
    left = [[] for _ in range(dim)]  # c -> [(b, brackets of b, c)] for [e_b, e_c] nonzero
    for (b, c), entries in constants.items():
        plain = tuple((a + sq * p, k) for a, p, k in entries)
        brackets[b * dim + c] = ks = (
            plain, tuple((s - sq, -k) if s >= sq else (s + sq, k) for s, k in plain),
            tuple((a * dim, p, k) for a, p, k in entries))
        right[b].append((c, ks))
        left[c].append((b, ks))
    for b in range(dim):
        for c in range(b, dim):
            # (d * dim, numerator, the entries of e_e bracketed with the
            # third index) for [[b,c],d], [[c,d],b] and [[d,b],c], at the d
            # where (b, c, d) comes first among its rotations
            terms = [(d * dim, k1, ks[p]) for e, p, k1 in constants.get((b, c), ())
                     for d, ks in right[e] if d > b or d == b == c]
            terms += [(d * dim, k1, ks[p]) for d, first in right[c] if d > b or d == b == c
                      for edim, p, k1 in first[2] if (ks := brackets.get(edim + b))]
            terms += [(d * dim, k1, ks[p]) for d, first in left[b] if d > b or d == b == c
                      for edim, p, k1 in first[2] if (ks := brackets.get(edim + c))]
            acc: dict = {}
            for base, k1, ks in terms:
                for s, k2 in ks:
                    slot = base + s
                    k = k1 * k2 + acc.get(slot, 0)
                    if k:
                        acc[slot] = k
                    else:
                        del acc[slot]
            if acc:
                slot = min(s % sq for s in acc)
                d, a = divmod(slot, dim)
                value = _scalar(acc.get(slot, 0), acc.get(slot + sq, 0), den * den, 0)
                return ValidationFailure(
                    "jacobi", (a, b, c, d), f"cyclic sum = {value.render()}")
    return None


def _realization_witness(algebra: LieAlgebra) -> Optional[ValidationFailure]:
    """First (b, c) whose matrix commutator differs from the table's
    sum_a c[a,b,c] M_a.

    For an antisymmetric table both sides are antisymmetric in (b, c), so
    (c, b) fails exactly when (b, c) does and (b, b) never fails: the pairs
    with b < c find the same first witness.

    The commutator is formed again from the matrices, so the check does not
    lean on ``structure_from_matrices``.  Over D^2 D_c, for matrices over D
    and constants over D_c, the difference is D_c [N_b, N_c] less
    D sum_a k_a N_a.
    """
    r = algebra._realization
    if r is None:
        return None
    den, constants = algebra._constants
    if any(failure.invariant == "antisymmetry" for failure in algebra._bracket_failures):
        pairs = itertools.product(range(algebra.dim), repeat=2)
    else:
        pairs = itertools.combinations(range(algebra.dim), 2)
    for b, c in pairs:
        residual = _commutator(r.mats[b], r.mats[c])
        if den != 1:
            residual = {key: v * den for key, v in residual.items()}
        for a, p, k in constants.get((b, c), ()):
            _axpy(residual, -k * r.den, _times_i(r.mats[a]) if p else r.mats[a])
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
    if not split.partitions(algebra.dim):
        return ValidationReport(False, [ValidationFailure(
            "partition", (tuple(split.h), tuple(split.p)),
            "indices must partition the basis")])

    failures = []
    h, p = set(split.h), set(split.p)
    structure = algebra.structure
    for invariant, (in_b, in_c, in_a), detail in (
            ("subalgebra", (h, h, p), "leaks into the complement"),
            ("reductive", (h, p, h), "breaks ad-invariance of the complement")):
        # the first key c[a,b,c], in sorted order, with b, c and a in these parts
        key = min(((a, b, c) for a, b, c in structure
                   if b in in_b and c in in_c and a in in_a), default=None)
        if key is not None:
            a, b, c = key
            failures.append(ValidationFailure(
                invariant, key, f"c[{a},{b},{c}] = {structure[key].render()} {detail}"))
    return ValidationReport(not failures, failures)


class _GeneratedSpan:
    """The span of the subalgebra generated by the basis directions added so
    far, for an antisymmetric table that satisfies the Jacobi identity.

    The span is held as fully reduced pivots, so a vector reduces to zero
    exactly when it lies in the span.  Each added vector is bracketed with
    every one added before it, which closes the span under brackets.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.pivots = {}  # entry -> (reduced vector {basis index: Scalar}, {})
        self.added = []  # the vectors as added, each bracketed with the later ones

    def __contains__(self, x: int) -> bool:
        # e_x reduces to zero exactly when the pivot at x is e_x itself
        return x in self.pivots and self.pivots[x][0] == {x: ONE}

    @property
    def full(self) -> bool:
        return len(self.pivots) == self.algebra.dim

    def add(self, x: int) -> None:
        """Add e_x and close the span under brackets."""
        todo = [{x: ONE}]
        while todo and not self.full:
            vec = todo.pop()
            if _pivot(self.pivots, vec, {}):  # vec is left reduced
                self.added.append(vec)
                todo += [self._bracket(vec, u) for u in self.added[:-1]]

    def _bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        structure, constants = self.algebra.structure, self.algebra._constants[1]
        for b, ub in u.items():
            for c, vc in v.items():
                for a, p, _ in constants.get((b, c), ()):
                    if not p or not structure[a, b, c].re:  # each constant once
                        _acc_add(out, a, ub * vc * structure[a, b, c])
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

    The components of x, of y and the structure constants (``_constants``)
    are read as integer numerators, each over one denominator, so every
    term of the result has the denominator D_c * D_x * D_y.  Each
    x^b /\\ y^c is taken once and added, times each part of each constant
    on it, into the one dict of its component (``_axpy``); an i part takes
    the product times i.
    """
    x._check(y)
    algebra, ctx = x.algebra, x.ctx
    xs = {b: c for b, c in enumerate(x.components) if not c.is_zero}
    ys = {c: e for c, e in enumerate(y.components) if not e.is_zero}
    if not (xs and ys and algebra.structure):
        return LieValuedForm.zero(algebra, ctx, x.degree + y.degree)
    cden, constants = algebra._constants
    frame = _Frame(ctx, [(list(xs.values()), 1), (list(ys.values()), 1)], (0, cden, 0))
    layout, i = frame.layout, frame.layout.i
    xe = {b: frame.align(e) for b, e in xs.items()}
    ye = {c: frame.align(e, 1) for c, e in ys.items()}
    acc: dict = {}
    for (b, c), entries in constants.items():
        xb = xe.get(b)
        if xb is None:
            continue
        yc = ye.get(c)
        if yc is None:
            continue
        prod = _product(xb, yc, layout)
        if not prod:
            continue
        turned = None  # prod times i, where i * i = -1
        for a, p, k in entries:
            if p and turned is None:
                turned = {key ^ i: -v if key & i else v for key, v in prod.items()}
            _axpy(acc.setdefault(a, {}), k, turned if p else prod)
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

def so_algebra(n: int) -> LieAlgebra:
    """so(n) with basis E_ij - E_ji for i < j, ordered lexicographically."""
    if n < 2:
        raise ContractError("so(n) needs n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = _Realization(n, 1, tuple({(i, j, 0): 1, (j, i, 0): -1} for i, j in pairs))
    labels = [f"E[{i + 1},{j + 1}]" for i, j in pairs]
    structure = structure_from_matrices(mats) if len(pairs) > 1 else {}
    return LieAlgebra(len(pairs), labels, structure, mats, name=f"so{n}",
                      meta={"family": "so", "n": n, "pairs": tuple(pairs)})


def gl_algebra(n: int) -> LieAlgebra:
    """gl(n; C) with basis E_ij, ordered lexicographically."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    mats = _Realization(n, 1, tuple({(i, j, 0): 1} for i, j in pairs))
    labels = [f"E[{i + 1},{j + 1}]" for i, j in pairs]
    structure = structure_from_matrices(mats)
    return LieAlgebra(len(pairs), labels, structure, mats, name=f"gl{n}",
                      meta={"family": "gl", "n": n, "pairs": tuple(pairs)})


def u_algebra(n: int) -> LieAlgebra:
    """u(n): skew-hermitian matrices over the Gaussian rationals."""
    mats = [{(k, k, 1): 1} for k in range(n)]
    labels = [f"iE[{k + 1},{k + 1}]" for k in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            mats += [{(j, k, 0): 1, (k, j, 0): -1}, {(j, k, 1): 1, (k, j, 1): 1}]
            labels += [f"A[{j + 1},{k + 1}]", f"S[{j + 1},{k + 1}]"]
    mats = _Realization(n, 1, tuple(mats))
    structure = structure_from_matrices(mats) if len(labels) > 1 else {}
    return LieAlgebra(len(labels), labels, structure, mats, name=f"u{n}",
                      meta={"family": "u", "n": n})


def su2_algebra() -> LieAlgebra:
    """su(2) with [X1, X2] = X3 cyclically; X_a = sigma_a / (2i)."""
    mats = _Realization(2, 2, ({(0, 1, 1): -1, (1, 0, 1): -1}, {(0, 1, 0): -1, (1, 0, 0): 1},
                               {(0, 0, 1): -1, (1, 1, 1): 1}))
    structure = structure_from_matrices(mats)
    return LieAlgebra(3, ("X[1]", "X[2]", "X[3]"), structure, mats,
                      name="su2", meta={"family": "su2", "n": 2})


def abelian_algebra(d: int) -> LieAlgebra:
    """R^d with the zero bracket, realized by commuting diagonal matrices."""
    mats = _Realization(d, 1, tuple({(k, k, 0): 1} for k in range(d)))
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
    if m > algebra.meta["n"]:
        raise ContractError(f"so{m} is larger than so{algebra.meta['n']}")
    return ReductiveSplit.from_h(algebra.dim, so_block(algebra.meta["n"], m))


def gl_subalgebra_split(algebra: LieAlgebra, m: int) -> ReductiveSplit:
    """gl(m) inside gl(n): matrix units in the top-left m-by-m block."""
    if algebra.meta.get("family") != "gl":
        raise ContractError("gl subalgebra split needs a gl(n) algebra")
    if m > algebra.meta["n"]:
        raise ContractError(f"gl{m} is larger than gl{algebra.meta['n']}")
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
        if name.startswith(prefix) and name[len(prefix):].isdecimal():
            return builder(int(name[len(prefix):]))
    raise ContractError(f"unknown algebra name {name!r}")


def named_split(algebra: LieAlgebra, spec: Optional[str]) -> ReductiveSplit:
    """Resolve a subalgebra description: a known name, 'none', or h indices."""
    if spec is None or spec.strip().lower() in ("none", "trivial", ""):
        return trivial_split(algebra)
    spec = spec.strip().lower()
    if spec.startswith("so") and spec[2:].isdecimal():
        return so_subalgebra_split(algebra, int(spec[2:]))
    if spec.startswith("gl") and spec[2:].isdecimal():
        return gl_subalgebra_split(algebra, int(spec[2:]))
    if spec in ("u1", "u1-line") and algebra.meta.get("family") == "su2":
        return su2_diagonal_split(algebra)
    try:
        indices = [int(tok) for tok in spec.split(",")]
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
