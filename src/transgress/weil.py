"""The universal connection model over a reductive splitting.

For an algebra of dimension d, the context carries odd generators w[a]
(the connection components) and even generators W[a] (the curvature
components).  The differential is fixed on generators by the structure
equation solved for d(w[a]) and by the resulting Bianchi image on W[a]:

    d(w[a]) = W[a] - 1/2 sum c[a,b,c] w[b] w[c]
    d(W[a]) = sum c[a,b,c] W[b] w[c]

d.d = 0 on generators is then equivalent to the Jacobi identity, which makes
it a cheap independent soundness probe; ``d_squared_witness`` exposes it.
Everything downstream (sub-connection, sub-curvature, the covariant
derivative of the tangential part, and the one-parameter curvature family)
is derived from these generators, so every identity checked here is an
exact polynomial statement.
"""

from __future__ import annotations

import random
from functools import cached_property, reduce
from operator import or_

from .algebra import (
    Context,
    ContractError,
    Derivation,
    Generator,
    GradedElement,
    HALF,
    _combine,
    _element,
    _numerators,
    _t_block,
)
from .invariants import InvariantPolynomial, evaluate
from .lie import (
    LieAlgebra,
    LieValuedForm,
    ReductiveSplit,
    _GeneratedSpan,
    bracket,
    project,
    validate_split,
)

__all__ = ["UniversalSetup"]


class UniversalSetup:
    """Free model of a connection with curvature, split along a subalgebra.

    The splitting defaults to the empty subalgebra, in which case the
    sub-connection vanishes and the tangential part is the whole connection
    (the classical one-bundle limit).
    """

    def __init__(self, algebra: LieAlgebra, split: ReductiveSplit = None):
        if split is None:
            split = ReductiveSplit.from_h(algebra.dim, ())
        if not split.partitions(algebra.dim):
            raise ContractError("split does not partition the basis")
        self.algebra = algebra
        self.split = split
        dim = algebra.dim

        gens = [Generator(a, 1, f"w[{a}]") for a in range(dim)]
        gens += [Generator(dim + a, 2, f"W[{a}]") for a in range(dim)]
        self.context = Context(gens)
        ctx = self.context

        self.connection = LieValuedForm(
            algebra, ctx, tuple(ctx.gen(a) for a in range(dim)), 1)
        self.curvature = LieValuedForm(
            algebra, ctx, tuple(ctx.gen(dim + a) for a in range(dim)), 2)

        images = self._d_images()
        self.d = Derivation(ctx, images, +1)

        self.sub_connection, self.tensor_form = project(split, self.connection)
        self._difference_cache = {}
        self._integrand_cache = {}

    def _d_images(self) -> dict:
        """d on the generators, as numerators over 2 D_c for the structure
        constants over D_c, in the order of ``algebra.structure``, each
        constant's i part keyed with the i field set."""
        algebra, ctx = self.algebra, self.context
        dim = algebra.dim
        den = algebra._constants[0]
        layout = ctx._layout(1)
        units = layout.units
        odd = [{units[dim + a]: 2 * den} for a in range(dim)]
        even = [{} for _ in range(dim)]
        for (a, b, c), v in algebra.structure.items():
            for p, num in _numerators(v, den):
                if b != c:
                    key = 1 << b | 1 << c | layout.i * p
                    n = odd[a].get(key, 0) + (-num if b < c else num)
                    if n:
                        odd[a][key] = n
                    else:
                        del odd[a][key]
                even[a][units[dim + b] | 1 << c | layout.i * p] = 2 * num
        images = {}
        for a in range(dim):
            images[a] = _element(ctx, layout, odd[a], 2 * den, 0, 1, 2)
            images[dim + a] = _element(ctx, layout, even[a], 2 * den, 0, 1, 3)
        return images

    # -- derived forms ------------------------------------------------------

    def d_form(self, x: LieValuedForm) -> LieValuedForm:
        """Apply the differential componentwise."""
        return LieValuedForm(
            self.algebra, self.context,
            tuple(self.d(c) for c in x.components), x.degree + 1)

    def sub_covariant_d(self, x: LieValuedForm) -> LieValuedForm:
        """Covariant derivative along the sub-connection: d(x) + [psi, x]."""
        return self.d_form(x) + bracket(self.sub_connection, x)

    @cached_property
    def sub_curvature(self) -> LieValuedForm:
        """Curvature of the sub-connection; supported on the subalgebra."""
        psi = self.sub_connection
        return self.d_form(psi) + bracket(psi, psi).scale(HALF)

    @cached_property
    def tensor_bracket(self) -> LieValuedForm:
        return bracket(self.tensor_form, self.tensor_form)

    @cached_property
    def family_tensor_bracket(self) -> LieValuedForm:
        """[F_t, x]: the curvature family bracketed with the tensor part, as
        the deformation Bianchi identity and the ad-invariance identity use
        it."""
        return bracket(self.deformed_curvature, self.tensor_form)

    @cached_property
    def deformed_connection(self) -> LieValuedForm:
        """The 1-form family: sub-connection plus t times the tangential part."""
        return self.sub_connection + self.tensor_form.times_t(1)

    @cached_property
    def deformed_curvature(self) -> LieValuedForm:
        """Curvature of the deformed connection, by the structure equation."""
        w_t = self.deformed_connection
        return self.d_form(w_t) + bracket(w_t, w_t).scale(HALF)

    def curvature_difference(self, P: InvariantPolynomial) -> GradedElement:
        """P(curvature) - P(sub-curvature), the d-image every transgression
        form of P must have; computed once per polynomial object."""
        cached = self._difference_cache.get(P)
        if cached is None:
            k = P.degree
            cached = (evaluate(P, [self.curvature] * k)
                      - evaluate(P, [self.sub_curvature] * k))
            self._difference_cache[P] = cached
        return cached

    def transgression_integrand(self, P: InvariantPolynomial) -> GradedElement:
        """P(tensor part, family, ..., family), the t-polynomial that the
        integral route integrates and the derivative identity differentiates;
        computed once per polynomial object."""
        cached = self._integrand_cache.get(P)
        if cached is None:
            args = [self.tensor_form] + [self.deformed_curvature] * (P.degree - 1)
            cached = evaluate(P, args)
            self._integrand_cache[P] = cached
        return cached

    # -- d on h-basic forms --------------------------------------------------

    def h_bits(self, y: GradedElement) -> int:
        """The key bits of the h-connection factors w[a], a in h, that some
        key of y has (the odd bits of a key are the ids of its odd factors).
        The contraction iota_a, the partial derivative in w[a], sends
        distinct keys to distinct keys, so iota_a(y) = 0 exactly when bit a
        is not set."""
        return reduce(or_, y._nums, 0) & sum(1 << a for a in self.split.h)

    @cached_property
    def _basic_shortcut(self) -> bool:
        """Whether the table is a Lie bracket and the split is reductive,
        so that h is closed under it; ``d_basic`` applies only then."""
        return (not self.algebra._bracket_failures
                and validate_split(self.algebra, self.split).passed)

    @cached_property
    def d_S(self) -> Derivation:
        """d less every image term with a factor w[a], a in h outside S,
        for S the Lie-generating set of h that the gate's ``_GeneratedSpan``
        finds walking h in basis order; ``d`` itself when S is all of h.
        Only ``d_basic`` reads it, after its preconditions."""
        h = self.split.h
        span = _GeneratedSpan(self.algebra)
        drop = 0  # the bits of h outside S
        for x in h:
            if len(span.pivots) == len(h) or x in span:
                drop |= 1 << x
            else:
                span.add(x)
        if not drop:
            return self.d
        images = {gid: _element(self.context, img._layout,
                                {k: v for k, v in img._nums.items() if not k & drop},
                                img._den, img._power, img._most, img._deg)
                  for gid, img in self.d.images.items()}
        return Derivation(self.context, images, +1)

    def d_basic(self, y: GradedElement):
        """d(y) for an h-basic y through the one derivation ``d_S``, or None
        when y is not h-basic or the shortcut does not hold for the set-up.

        It holds when the table is a Lie bracket and the split is reductive,
        so h is closed under it.  Then each term of d(y) has at most one
        h-connection factor, and for y without one, d(y) = d'(y) + sum over
        a in h of w[a] L_a(y), d' being d less every image term with an
        h-connection factor and L_a the Lie derivative iota_a d + d iota_a.
        ``d_S`` forms d'(y) and the w[a] L_a(y) for a in S, so an h-bit in
        d_S(y) (``h_bits``) means some L_a(y) is nonzero.  Without one,
        L_a(y) = 0 on S, hence on all of h, as a -> L_a is a Lie-algebra
        action (Jacobi), and d_S(y) is d(y)."""
        if not self._basic_shortcut or self.h_bits(y):
            return None
        out = self.d_S(y)
        return None if self.h_bits(out) else out

    # -- soundness probes ----------------------------------------------------

    def _first_nonzero(self, elements, spacing: int, passes: int):
        """(i, d^passes(x_i)) for the first x_i of ``elements`` where that is
        nonzero, or None.  Each x_i has t-degrees below ``spacing``, and d
        acts on generators only, so one pass over the sum of the
        x_i t^(spacing i) gives each d^passes(x_i) at its own t-degrees."""
        out = _combine(self.context, [(x.times_t(spacing * i), 1)
                                      for i, x in enumerate(elements)])
        for _ in range(passes):
            out = self.d(out)
        return _t_block(out, spacing)

    def d_squared_witness(self):
        """First generator with d(d(gen)) != 0, or None when d.d = 0: one
        pass of d over the images d(gen), each tagged by the position of
        its generator."""
        gens = self.context.generators
        zero = self.context.zero()
        hit = self._first_nonzero([self.d.images.get(g.gid, zero) for g in gens], 1, 1)
        return None if hit is None else (gens[hit[0]].label, hit[1])

    def d_squared_probe(self, seed: int):
        """d(d(x)) for the first of 20 random elements x (three terms, up to
        three odd factors, one even factor and t-degree 1) where it is
        nonzero, or None."""
        rng = random.Random(seed)
        draws = [self.context.random_element(rng, terms=3, max_odd=3, max_even=1, max_t=1)
                 for _ in range(20)]
        hit = self._first_nonzero(draws, 2, 2)
        return None if hit is None else hit[1]

    def bianchi_deformation_witness(self):
        """Nonzero part of d_H Omega(t) - t [Omega(t), tensor], if any."""
        omega_t = self.deformed_curvature
        diff = (self.sub_covariant_d(omega_t)
                - self.family_tensor_bracket.times_t(1))
        if diff.is_zero:
            return None
        return diff.first_nonzero()

    def __repr__(self) -> str:
        return (f"UniversalSetup({self.algebra.name or 'custom'}, "
                f"h={self.split.h})")
